#include "util/stats.h"

#include <cmath>

namespace sbroker::util {

double Summary::stddev() const { return std::sqrt(variance()); }

}  // namespace sbroker::util
