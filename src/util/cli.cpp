#include "util/cli.hpp"

#include <stdexcept>

#include "util/string_util.hpp"

namespace socmix::util {

namespace {

[[noreturn]] void malformed(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument{"--" + name + "=" + value + ": expected " + expected};
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "true";  // bare flag
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  read_.insert(name);
  const auto it = options_.find(name);
  return it == options_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return find(name) != nullptr; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::int64_t Cli::get_i64(const std::string& name, std::int64_t fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  const auto parsed = parse_i64(*value);
  if (!parsed) malformed(name, *value, "an integer");
  return *parsed;
}

double Cli::get_f64(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  const auto parsed = parse_f64(*value);
  if (!parsed) malformed(name, *value, "a number");
  return *parsed;
}

bool Cli::get_flag(const std::string& name) const {
  const std::string* value = find(name);
  if (value == nullptr) return false;
  const std::string v = to_lower(*value);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

void Cli::reject_unknown() const {
  std::string unknown;
  for (const auto& [name, value] : options_) {
    if (read_.contains(name)) continue;
    unknown += (unknown.empty() ? "--" : ", --") + name;
  }
  if (!unknown.empty()) throw std::invalid_argument{"unknown option " + unknown};
}

}  // namespace socmix::util
