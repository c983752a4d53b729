// Minimal --key=value command-line configuration used by bench and example
// binaries (e.g. --ops=100000 --seed=7 --scale=0.1). Each program names the
// flags it reads. A word that is not one of them, or a value that does not
// parse in full, ends the program with exit code 2 and a message naming it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace harmony {

class Config {
 public:
  Config() = default;

  /// Parse argv against `flags`, the names the program reads. Accepts
  /// "--key=value" and bare "--flag" (value "1").
  static Config from_args(int argc, const char* const* argv,
                          const std::vector<std::string_view>& flags);

  /// The value of `--key`, or `dflt` when absent. `key` must be one of the
  /// parsed flags; a value that is not a whole integer, number or boolean
  /// (1/true/yes/on, 0/false/no/off) exits as above.
  std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
  double get_double(const std::string& key, double dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;

 private:
  /// The raw value of a declared flag, nullptr when it was not given.
  const std::string* find(const std::string& key) const;
  [[noreturn]] void fail(const std::string& what) const;

  std::string program_;
  std::vector<std::string> flags_;
  std::map<std::string, std::string> kv_;
};

}  // namespace harmony
