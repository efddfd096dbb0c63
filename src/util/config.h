// Tiny key=value configuration store.
//
// Experiments and example binaries take "key=value" pairs from argv. Typed
// getters return defaults when a key is absent and throw
// std::invalid_argument when a present value fails to parse — silently
// ignoring a typo'd experiment parameter would invalidate a whole run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sbroker::util {

class Config {
 public:
  Config() = default;

  /// Parses argv-style "key=value" tokens; tokens without '=' are returned
  /// as positional arguments untouched.
  static Config from_args(int argc, const char* const* argv,
                          std::vector<std::string>* positional = nullptr);

  void set(std::string key, std::string value);
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, std::string def = "") const;
  int64_t get_int(const std::string& key, int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace sbroker::util
