// Tiny argv parser for bench/example drivers.
//
// Supports `--name value` and `--name=value` plus boolean flags. Good enough
// for the experiment harness; deliberately not a general CLI framework.
// Every getter records the name it was asked for, so an entry point that
// has read all of its options can reject the rest (reject_unknown) before
// it starts work: a removed or misspelled flag fails loudly instead of
// running with defaults.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace socmix::util {

class Cli {
 public:
  /// Parses argv. Every option is kept until reject_unknown is asked
  /// about the ones the program never read.
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  /// `fallback` when the option is absent; throws std::invalid_argument
  /// naming the option and the value when it is present but malformed.
  [[nodiscard]] std::int64_t get_i64(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_f64(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Positional (non --option) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// Throws std::invalid_argument naming every given option that no
  /// getter (has/get/get_i64/get_f64/get_flag) has asked for. Call once,
  /// after the entry point has read all of its options.
  void reject_unknown() const;

 private:
  /// The value of `name`, or null when absent; records the name as read.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace socmix::util
