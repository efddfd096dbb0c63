#include "util/config.h"

#include <stdexcept>

#include "util/strings.h"

namespace sbroker::util {

Config Config::from_args(int argc, const char* const* argv,
                         std::vector<std::string>* positional) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      if (positional) positional->emplace_back(arg);
      continue;
    }
    cfg.set(std::string(trim(arg.substr(0, eq))), std::string(trim(arg.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

bool Config::has(const std::string& key) const { return entries_.count(key) > 0; }

std::string Config::get_string(const std::string& key, std::string def) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? def : it->second;
}

int64_t Config::get_int(const std::string& key, int64_t def) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return def;
  auto parsed = parse_int(it->second);
  if (!parsed) throw std::invalid_argument("config key '" + key + "' is not an integer");
  return *parsed;
}

double Config::get_double(const std::string& key, double def) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return def;
  auto parsed = parse_double(it->second);
  if (!parsed) throw std::invalid_argument("config key '" + key + "' is not a number");
  return *parsed;
}

bool Config::get_bool(const std::string& key, bool def) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return def;
  std::string v = to_lower(it->second);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("config key '" + key + "' is not a boolean");
}

}  // namespace sbroker::util
