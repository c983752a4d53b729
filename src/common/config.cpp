#include "common/config.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace harmony {

Config Config::from_args(int argc, const char* const* argv,
                         const std::vector<std::string_view>& flags) {
  Config c;
  c.program_ = argc > 0 ? argv[0] : "program";
  c.flags_.assign(flags.begin(), flags.end());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() <= 2 || arg.rfind("--", 0) != 0) {
      c.fail("unexpected argument '" + arg + "'");
    }
    const auto eq = arg.find('=');
    const std::string key =
        arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    if (std::find(c.flags_.begin(), c.flags_.end(), key) == c.flags_.end()) {
      c.fail("unknown flag --" + key);
    }
    c.kv_[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return c;
}

const std::string* Config::find(const std::string& key) const {
  HARMONY_CHECK_MSG(
      std::find(flags_.begin(), flags_.end(), key) != flags_.end(),
      "flag --" + key + " is not among the program's flags");
  const auto it = kv_.find(key);
  return it == kv_.end() ? nullptr : &it->second;
}

void Config::fail(const std::string& what) const {
  std::string accepted;
  for (const auto& f : flags_) accepted += " --" + f;
  std::fprintf(stderr, "%s: %s\naccepted flags:%s\n", program_.c_str(),
               what.c_str(), accepted.empty() ? " none" : accepted.c_str());
  // A command-line error ends the program before it starts any thread.
  std::exit(2);  // NOLINT(concurrency-mt-unsafe)
}

std::int64_t Config::get_int(const std::string& key, std::int64_t dflt) const {
  const std::string* v = find(key);
  if (v == nullptr) return dflt;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v->c_str(), &end, 10);
  if (v->empty() || *end != '\0' || errno == ERANGE) {
    fail("--" + key + " expects an integer, got '" + *v + "'");
  }
  return n;
}

double Config::get_double(const std::string& key, double dflt) const {
  const std::string* v = find(key);
  if (v == nullptr) return dflt;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v->c_str(), &end);
  if (v->empty() || *end != '\0' || errno == ERANGE) {
    fail("--" + key + " expects a number, got '" + *v + "'");
  }
  return x;
}

bool Config::get_bool(const std::string& key, bool dflt) const {
  const std::string* v = find(key);
  if (v == nullptr) return dflt;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  fail("--" + key + " expects a boolean, got '" + *v + "'");
}

}  // namespace harmony
