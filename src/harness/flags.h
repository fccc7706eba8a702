// Shared command-line flag parsing for the harness binaries.
//
// Replaces the hand-rolled strcmp loops that odyssey_cli (and before it,
// every bench main) grew independently.  The grammar: bare words are
// positionals (subcommands, experiment names) and may be interleaved with
// `--flag value` / `--flag=value` pairs; a bare word immediately following
// a `--flag` token binds to it as the value; `--` ends flag parsing and
// everything after it is positional.  Numeric accessors parse strictly and
// throw FlagError on garbage instead of silently returning 0.

#ifndef SRC_HARNESS_FLAGS_H_
#define SRC_HARNESS_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace odharness {

// Thrown when a flag value fails to parse (e.g. `--trials five`).  CLI
// mains catch this at top level and turn it into a usage error.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  Flags(int argc, char** argv);
  explicit Flags(std::vector<std::string> args);

  // Bare arguments in order: words before, between, and after flag pairs,
  // plus everything following a literal "--".
  const std::vector<std::string>& positional() const { return positional_; }

  // True if `--name` appears as a flag token (with or without a value).
  // Value tokens are never matched: `--out=--trials` does not set "trials".
  bool Has(const std::string& name) const;

  // Value of `--name value` or `--name=value`; `fallback` when absent.
  // The numeric forms parse the full token strictly and throw FlagError on
  // trailing garbage, overflow, or an empty value; GetDouble also rejects
  // nan and inf.
  std::string GetString(const std::string& name, std::string fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  int GetInt(const std::string& name, int fallback) const;
  uint64_t GetUint64(const std::string& name, uint64_t fallback) const;

  // GetDouble restricted to [0, max] and (0, max] respectively; a value
  // outside the range throws FlagError.  The fallback is not checked.
  double GetNonNegativeDouble(
      const std::string& name, double fallback,
      double max = std::numeric_limits<double>::max()) const;
  double GetPositiveDouble(
      const std::string& name, double fallback,
      double max = std::numeric_limits<double>::max()) const;

  // Verifies that every `--flag` present is a declared one: `value_flags`
  // must carry a value, `bool_flags` must not.  On failure fills *error
  // with a usage-style message and returns false.
  bool Validate(std::initializer_list<const char*> value_flags,
                std::initializer_list<const char*> bool_flags,
                std::string* error) const;

 private:
  // One parsed token: either a flag name ("--jobs") or the value bound to
  // the flag name immediately before it.  Tracking the kind is what keeps
  // Has() from matching value tokens that merely look like flags.
  struct Token {
    std::string text;
    bool is_flag_name = false;
  };

  // Returns the value token for `--name`, or nullptr when absent/valueless.
  const std::string* RawValue(const std::string& name) const;

  std::vector<Token> tokens_;
  std::vector<std::string> positional_;
};

}  // namespace odharness

#endif  // SRC_HARNESS_FLAGS_H_
