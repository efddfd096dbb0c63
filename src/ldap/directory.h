// Mini LDAP-style directory service.
//
// The paper's Figure 1 shows front-end Web applications reaching database,
// mail AND directory (LDAP) servers; the broker framework is "per service
// based", so this substrate gives the directory brokers something real to
// front. The model follows LDAP's essentials without the ASN.1: entries are
// named by distinguished names ("cn=joe,ou=eng,o=acme"), live in a tree
// derived from DN suffixes, carry multi-valued attributes, and are found by
// (base, scope, filter) searches.
//
// Filters support the common cases: equality "(cn=joe)", presence
// "(mail=*)", and prefix match "(cn=jo*)".
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

  /// First value of `name`, or nullopt.
  std::optional<std::string> attribute(const std::string& name) const;
};

enum class Scope {
  kBase,     ///< only the base entry itself
  kOneLevel, ///< direct children of the base
  kSubtree,  ///< the base and every descendant
};

/// Parsed search filter.
struct Filter {
  enum class Kind { kEquality, kPresence, kPrefix };
  Kind kind = Kind::kPresence;
  std::string attribute;
  std::string value;  ///< empty for presence; prefix text for kPrefix

  bool matches(const Entry& entry) const;

  /// Parses "(attr=value)", "(attr=*)", "(attr=pre*)". Returns nullopt on
  /// malformed input (missing parens, empty attribute, ...).
  static std::optional<Filter> parse(std::string_view text);
};

/// DN helpers: DNs are comma-separated RDNs, leaf first.
/// parent("cn=a,o=b") == "o=b"; parent("o=b") == "".
std::string parent_dn(std::string_view dn);
/// Depth in RDN components; "" has depth 0.
size_t dn_depth(std::string_view dn);
/// True when `descendant` is below (or equal to) `ancestor`.
bool dn_under(std::string_view descendant, std::string_view ancestor);

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

  /// (base, scope, filter) search. An unknown base yields an empty result.
  /// `stats` (optional) receives work accounting for the cost model.
  std::vector<const Entry*> search(const std::string& base, Scope scope,
                                   const Filter& filter,
                                   SearchStats* stats = nullptr) const;

 private:
  void collect_subtree(const std::string& dn, std::vector<const Entry*>& out) const;

  std::map<std::string, Entry> entries_;
  std::multimap<std::string, std::string> children_;  // parent dn -> child dn
};

}  // namespace sbroker::ldap
