#include "src/harness/flags.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace odharness {

namespace {

bool IsFlagToken(const std::string& token) {
  return token.size() > 2 && token[0] == '-' && token[1] == '-';
}

[[noreturn]] void ThrowBadValue(const char* kind, const std::string& name,
                                const std::string& value) {
  throw FlagError("invalid " + std::string(kind) + " for --" + name + ": '" +
                  value + "'");
}

// `lower` is the lower-bound clause ("> 0", ">= 0"); `max` is named only
// when the caller set one.
[[noreturn]] void ThrowOutOfRange(const std::string& name,
                                  const std::string& value,
                                  const char* lower, double max) {
  std::string message = "--" + name + " must be " + lower;
  if (max < std::numeric_limits<double>::max()) {
    char bound[32];
    std::snprintf(bound, sizeof(bound), " and <= %g", max);
    message += bound;
  }
  throw FlagError(message + ": '" + value + "'");
}

}  // namespace

Flags::Flags(int argc, char** argv)
    : Flags([argc, argv] {
        std::vector<std::string> args;
        args.reserve(argc > 1 ? static_cast<size_t>(argc - 1) : 0);
        for (int i = 1; i < argc; ++i) {
          args.emplace_back(argv[i]);
        }
        return args;
      }()) {}

Flags::Flags(std::vector<std::string> args) {
  bool end_of_flags = false;
  bool expect_value = false;  // Previous token was a bare "--flag".
  for (std::string& arg : args) {
    if (end_of_flags) {
      positional_.push_back(std::move(arg));
      continue;
    }
    if (arg == "--") {
      end_of_flags = true;
      expect_value = false;
      continue;
    }
    if (IsFlagToken(arg)) {
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        tokens_.push_back(Token{arg.substr(0, eq), /*is_flag_name=*/true});
        tokens_.push_back(Token{arg.substr(eq + 1), /*is_flag_name=*/false});
        expect_value = false;
      } else {
        tokens_.push_back(Token{std::move(arg), /*is_flag_name=*/true});
        expect_value = true;
      }
      continue;
    }
    if (expect_value) {
      tokens_.push_back(Token{std::move(arg), /*is_flag_name=*/false});
      expect_value = false;
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Flags::Has(const std::string& name) const {
  const std::string needle = "--" + name;
  for (const Token& token : tokens_) {
    if (token.is_flag_name && token.text == needle) {
      return true;
    }
  }
  return false;
}

const std::string* Flags::RawValue(const std::string& name) const {
  const std::string needle = "--" + name;
  for (size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i].is_flag_name && tokens_[i].text == needle) {
      if (i + 1 < tokens_.size() && !tokens_[i + 1].is_flag_name) {
        return &tokens_[i + 1].text;
      }
      return nullptr;
    }
  }
  return nullptr;
}

std::string Flags::GetString(const std::string& name,
                             std::string fallback) const {
  const std::string* value = RawValue(name);
  return value != nullptr ? *value : std::move(fallback);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const std::string* value = RawValue(name);
  if (value == nullptr) {
    return fallback;
  }
  if (value->empty()) {
    ThrowBadValue("number", name, *value);
  }
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(value->c_str(), &end);
  if (errno != 0 || end != value->c_str() + value->size() ||
      !std::isfinite(parsed)) {
    ThrowBadValue("number", name, *value);
  }
  return parsed;
}

double Flags::GetNonNegativeDouble(const std::string& name, double fallback,
                                   double max) const {
  const double parsed = GetDouble(name, fallback);
  const std::string* value = RawValue(name);
  if (value != nullptr && !(parsed >= 0.0 && parsed <= max)) {
    ThrowOutOfRange(name, *value, ">= 0", max);
  }
  return parsed;
}

double Flags::GetPositiveDouble(const std::string& name, double fallback,
                                double max) const {
  const double parsed = GetDouble(name, fallback);
  const std::string* value = RawValue(name);
  if (value != nullptr && !(parsed > 0.0 && parsed <= max)) {
    ThrowOutOfRange(name, *value, "> 0", max);
  }
  return parsed;
}

int Flags::GetInt(const std::string& name, int fallback) const {
  const std::string* value = RawValue(name);
  if (value == nullptr) {
    return fallback;
  }
  int parsed = 0;
  auto [ptr, ec] =
      std::from_chars(value->data(), value->data() + value->size(), parsed);
  if (ec != std::errc() || ptr != value->data() + value->size()) {
    ThrowBadValue("integer", name, *value);
  }
  return parsed;
}

uint64_t Flags::GetUint64(const std::string& name, uint64_t fallback) const {
  const std::string* value = RawValue(name);
  if (value == nullptr) {
    return fallback;
  }
  uint64_t parsed = 0;
  auto [ptr, ec] =
      std::from_chars(value->data(), value->data() + value->size(), parsed);
  if (ec != std::errc() || ptr != value->data() + value->size()) {
    ThrowBadValue("unsigned integer", name, *value);
  }
  return parsed;
}

bool Flags::Validate(std::initializer_list<const char*> value_flags,
                     std::initializer_list<const char*> bool_flags,
                     std::string* error) const {
  auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  for (size_t i = 0; i < tokens_.size(); ++i) {
    const Token& token = tokens_[i];
    // Value tokens are consumed alongside their flag below; by construction
    // every top-of-loop token is a flag name.
    const bool has_value = i + 1 < tokens_.size() && !tokens_[i + 1].is_flag_name;
    bool declared = false;
    for (const char* f : value_flags) {
      if (token.text.compare(2, std::string::npos, f) == 0) {
        if (!has_value) {
          return fail("flag '" + token.text + "' requires a value");
        }
        declared = true;
        break;
      }
    }
    if (!declared) {
      for (const char* f : bool_flags) {
        if (token.text.compare(2, std::string::npos, f) == 0) {
          if (has_value) {
            return fail("flag '" + token.text + "' does not take a value (got '" +
                        tokens_[i + 1].text + "'; use -- before positionals)");
          }
          declared = true;
          break;
        }
      }
    }
    if (!declared) {
      return fail("unknown flag '" + token.text + "'");
    }
    if (has_value) {
      ++i;  // Skip the value token.
    }
  }
  return true;
}

}  // namespace odharness
