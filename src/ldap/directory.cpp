#include "ldap/directory.h"

#include "util/strings.h"

namespace sbroker::ldap {

std::optional<std::string> Entry::attribute(const std::string& name) const {
  auto it = attributes.find(name);
  if (it == attributes.end()) return std::nullopt;
  return it->second;
}

bool Filter::matches(const Entry& entry) const {
  auto [lo, hi] = entry.attributes.equal_range(attribute);
  switch (kind) {
    case Kind::kPresence:
      return lo != hi;
    case Kind::kEquality:
      for (auto it = lo; it != hi; ++it) {
        if (it->second == value) return true;
      }
      return false;
    case Kind::kPrefix:
      for (auto it = lo; it != hi; ++it) {
        if (util::starts_with(it->second, value)) return true;
      }
      return false;
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
  if (filter.attribute.empty()) return std::nullopt;
  std::string_view value = util::trim(body.substr(eq + 1));
  if (value == "*") {
    filter.kind = Kind::kPresence;
  } else if (!value.empty() && value.back() == '*') {
    filter.kind = Kind::kPrefix;
    filter.value = std::string(value.substr(0, value.size() - 1));
  } else {
    filter.kind = Kind::kEquality;
    filter.value = std::string(value);
  }
  return filter;
}

std::string parent_dn(std::string_view dn) {
  size_t comma = dn.find(',');
  if (comma == std::string_view::npos) return "";
  return std::string(util::trim(dn.substr(comma + 1)));
}

size_t dn_depth(std::string_view dn) {
  if (util::trim(dn).empty()) return 0;
  return util::split(dn, ',').size();
}

bool dn_under(std::string_view descendant, std::string_view ancestor) {
  if (descendant == ancestor) return true;
  if (ancestor.empty()) return true;
  if (descendant.size() <= ancestor.size()) return false;
  // descendant must end with ",ancestor".
  size_t offset = descendant.size() - ancestor.size();
  return descendant.substr(offset) == ancestor && descendant[offset - 1] == ',';
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

void Directory::collect_subtree(const std::string& dn,
                                std::vector<const Entry*>& out) const {
  const Entry* entry = find(dn);
  if (!entry) return;
  out.push_back(entry);
  auto [lo, hi] = children_.equal_range(dn);
  for (auto child = lo; child != hi; ++child) collect_subtree(child->second, out);
}

std::vector<const Entry*> Directory::search(const std::string& base, Scope scope,
                                            const Filter& filter,
                                            SearchStats* stats) const {
  std::vector<const Entry*> candidates;
  switch (scope) {
    case Scope::kBase: {
      const Entry* entry = find(base);
      if (entry) candidates.push_back(entry);
      break;
    }
    case Scope::kOneLevel: {
      auto [lo, hi] = children_.equal_range(base);
      for (auto child = lo; child != hi; ++child) {
        if (const Entry* entry = find(child->second)) candidates.push_back(entry);
      }
      break;
    }
    case Scope::kSubtree:
      collect_subtree(base, candidates);
      break;
  }

  std::vector<const Entry*> matched;
  for (const Entry* entry : candidates) {
    if (stats) ++stats->entries_examined;
    if (filter.matches(*entry)) {
      matched.push_back(entry);
      if (stats) ++stats->entries_matched;
    }
  }
  return matched;
}

}  // namespace sbroker::ldap
