// Mini LDAP-style directory service.
//
// The paper's Figure 1 shows front-end Web applications reaching database,
// mail AND directory (LDAP) servers; the broker framework is "per service
// based", so this substrate gives the directory brokers something real to
// front. The model follows LDAP's essentials without the ASN.1: entries are
// named by distinguished names ("cn=joe,ou=eng,o=acme"), live in a tree
// derived from DN suffixes, carry multi-valued attributes, and are found by
// one-level searches (the direct children of a base) under an equality
// filter "(attr=value)" — the roster lookup the intranet portal sends.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sbroker::ldap {

/// One directory entry: a DN plus multi-valued attributes.
struct Entry {
  std::string dn;
  std::multimap<std::string, std::string> attributes;
};

/// Equality filter "(attr=value)".
struct Filter {
  std::string attribute;
  std::string value;

  /// True when any value of `attribute` equals `value`.
  bool matches(const Entry& entry) const;

  /// Parses "(attr=value)". Returns nullopt on malformed input (missing
  /// parens, empty attribute, a '*' wildcard in the value, ...).
  static std::optional<Filter> parse(std::string_view text);
};

/// DNs are comma-separated RDNs, leaf first.
/// parent_dn("cn=a,o=b") == "o=b"; parent_dn("o=b") == "".
std::string parent_dn(std::string_view dn);

class Directory {
 public:
  /// Inserts an entry. Returns false (and changes nothing) when the DN
  /// already exists or its parent is absent (roots — depth 1 — excepted).
  bool add(Entry entry);

  const Entry* find(const std::string& dn) const;
  size_t size() const { return entries_.size(); }

  struct SearchStats {
    uint64_t entries_examined = 0;
    uint64_t entries_matched = 0;
  };

  /// The direct children of `base` that match `filter`. An unknown base
  /// yields an empty result. `stats` (optional) receives work accounting
  /// for the cost model.
  std::vector<const Entry*> search(const std::string& base, const Filter& filter,
                                   SearchStats* stats = nullptr) const;

 private:
  std::map<std::string, Entry> entries_;
  std::multimap<std::string, std::string> children_;  // parent dn -> child dn
};

}  // namespace sbroker::ldap
