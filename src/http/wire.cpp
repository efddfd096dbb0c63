#include "http/wire.h"

namespace sbroker::http {

const char* fidelity_name(Fidelity f) {
  switch (f) {
    case Fidelity::kFull:
      return "full";
    case Fidelity::kCached:
      return "cached";
    case Fidelity::kBusy:
      return "busy";
    case Fidelity::kError:
      return "error";
    case Fidelity::kDegraded:
      return "degraded";
  }
  return "?";
}

}  // namespace sbroker::http
