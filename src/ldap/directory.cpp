#include "ldap/directory.h"

#include "util/strings.h"

namespace sbroker::ldap {

bool Filter::matches(const Entry& entry) const {
  auto [lo, hi] = entry.attributes.equal_range(attribute);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == value) return true;
  }
  return false;
}

std::optional<Filter> Filter::parse(std::string_view text) {
  text = util::trim(text);
  if (text.size() < 4 || text.front() != '(' || text.back() != ')') return std::nullopt;
  std::string_view body = text.substr(1, text.size() - 2);
  size_t eq = body.find('=');
  if (eq == std::string_view::npos) return std::nullopt;
  Filter filter;
  filter.attribute = std::string(util::trim(body.substr(0, eq)));
  filter.value = std::string(util::trim(body.substr(eq + 1)));
  if (filter.attribute.empty() || filter.value.find('*') != std::string::npos) {
    return std::nullopt;
  }
  return filter;
}

std::string parent_dn(std::string_view dn) {
  size_t comma = dn.find(',');
  if (comma == std::string_view::npos) return "";
  return std::string(util::trim(dn.substr(comma + 1)));
}

bool Directory::add(Entry entry) {
  if (entries_.count(entry.dn)) return false;
  std::string parent = parent_dn(entry.dn);
  if (!parent.empty() && !entries_.count(parent)) return false;
  children_.emplace(parent, entry.dn);
  std::string dn = entry.dn;
  entries_.emplace(std::move(dn), std::move(entry));
  return true;
}

const Entry* Directory::find(const std::string& dn) const {
  auto it = entries_.find(dn);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const Entry*> Directory::search(const std::string& base, const Filter& filter,
                                            SearchStats* stats) const {
  std::vector<const Entry*> matched;
  auto [lo, hi] = children_.equal_range(base);
  for (auto child = lo; child != hi; ++child) {
    const Entry* entry = find(child->second);
    if (stats) ++stats->entries_examined;
    if (filter.matches(*entry)) {
      matched.push_back(entry);
      if (stats) ++stats->entries_matched;
    }
  }
  return matched;
}

}  // namespace sbroker::ldap
