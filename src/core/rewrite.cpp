#include "core/rewrite.h"

#include <algorithm>

#include "db/parser.h"

namespace sbroker::core {

QueryRewriter::QueryRewriter(RewriteConfig config, QosRules rules)
    : config_(config), rules_(rules) {}

RewriteOutcome QueryRewriter::apply(const std::string& payload, QosLevel level,
                                    LoadState load) const {
  RewriteOutcome out{payload, false};
  if (!config_.enabled || load == LoadState::kNormal) return out;

  level = rules_.clamp_level(level);
  std::optional<uint64_t> cap;
  if (load == LoadState::kHot && level < rules_.num_levels) {
    cap = kHotLimit;
  } else if (load == LoadState::kWarm && level <= kWarmDegradeBelow) {
    cap = kWarmLimit;
  }
  if (!cap) return out;

  db::SelectQuery query;
  try {
    query = db::parse_select(payload);
  } catch (const db::ParseError&) {
    return out;  // not SQL — nothing to degrade
  }
  if (query.limit && *query.limit <= *cap) return out;  // already cheap enough
  query.limit = *cap;
  out.payload = query.to_string();
  out.degraded = true;
  ++rewrites_;
  return out;
}

}  // namespace sbroker::core
