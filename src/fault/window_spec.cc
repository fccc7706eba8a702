#include "src/fault/window_spec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace odfault {
namespace {

// Strict: the whole token must be one finite strtod number.
bool ParseNumber(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(*out);
}

// Nonnegative seconds to whole microseconds; false (instead of an
// out-of-range cast) when the count would not fit SimTime's int64.
bool ToSimTime(double seconds, odsim::SimDuration* out) {
  if (!(seconds >= 0.0 && seconds < 9e12)) {
    return false;
  }
  *out = odsim::SimDuration::Seconds(seconds);
  return true;
}

// The shortest "%.<N>g" spelling of `value`, N >= 6, that `reads_back`
// accepts once strtod reads it again.  Plain %g (N = 6) keeps "0.1" as
// "0.1" and "30" as "30", so specs people type keep their spelling; 17
// digits reproduce any double, so the search always ends.
template <typename ReadsBack>
std::string Spell(double value, ReadsBack reads_back) {
  char buffer[32];
  for (int digits = 6;; ++digits) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
    if (digits == 17 || reads_back(std::strtod(buffer, nullptr))) {
      return buffer;
    }
  }
}

std::string SpellTime(odsim::SimDuration t) {
  return Spell(t.seconds(), [t](double seconds) {
    odsim::SimDuration read;
    return ToSimTime(seconds, &read) && read == t;
  });
}

std::string SpellParam(double value) {
  return Spell(value, [value](double read) { return read == value; });
}

bool ValidName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

// `line` / `column` locate the window's first character in the original
// spec; sub-token failures offset the column to the token itself.
bool ParseWindow(const WindowGrammar& grammar, const std::string& text,
                 int line, int column, Window* window, std::string* error) {
  auto fail = [&](size_t offset, const std::string& token,
                  const std::string& why) {
    if (error != nullptr) {
      *error = SpecError(line, column + static_cast<int>(offset), token, why);
    }
    return false;
  };
  const std::string param_noun = grammar.param_noun;
  size_t at_pos = text.find('@');
  if (at_pos == std::string::npos) {
    return fail(0, text, "expected kind@start+duration[=" + param_noun + "]");
  }
  const std::string kind_text = text.substr(0, at_pos);
  int kind = 0;
  while (kind < static_cast<int>(grammar.kinds.size()) &&
         kind_text != grammar.kinds[kind].name) {
    ++kind;
  }
  if (kind == static_cast<int>(grammar.kinds.size())) {
    std::string names;
    for (const WindowKind& info : grammar.kinds) {
      names += names.empty() ? "" : "|";
      names += info.name;
    }
    return fail(0, kind_text, std::string("unknown ") + grammar.kind_noun +
                                  " (" + names + ")");
  }
  const WindowKind& info = grammar.kinds[kind];
  size_t plus_pos = text.find('+', at_pos + 1);
  if (plus_pos == std::string::npos) {
    return fail(at_pos + 1, text.substr(at_pos + 1), "expected '+duration'");
  }
  size_t eq_pos = text.find('=', plus_pos + 1);
  double start = 0.0;
  double length = 0.0;
  const std::string start_text = text.substr(at_pos + 1, plus_pos - at_pos - 1);
  if (!ParseNumber(start_text, &start) || start < 0.0) {
    return fail(at_pos + 1, start_text,
                "start must be a nonnegative number of seconds");
  }
  const std::string duration_text =
      eq_pos == std::string::npos
          ? text.substr(plus_pos + 1)
          : text.substr(plus_pos + 1, eq_pos - plus_pos - 1);
  if (!ParseNumber(duration_text, &length) || length <= 0.0) {
    return fail(plus_pos + 1, duration_text,
                "duration must be a positive number of seconds");
  }
  odsim::SimDuration at;
  odsim::SimDuration duration;
  if (!ToSimTime(start, &at) || at > kMaxWindowEnd) {
    return fail(at_pos + 1, start_text, "start is past the 1e9 s limit");
  }
  if (!ToSimTime(length, &duration) || at + duration > kMaxWindowEnd) {
    return fail(plus_pos + 1, duration_text,
                "window ends past the 1e9 s limit");
  }
  if (duration == odsim::SimDuration::Zero()) {
    return fail(plus_pos + 1, duration_text,
                "duration rounds to 0 microseconds");
  }
  double param = info.default_param;
  if (eq_pos != std::string::npos) {
    const std::string param_text = text.substr(eq_pos + 1);
    if (!info.takes_param) {
      return fail(eq_pos, "=" + param_text,
                  std::string(info.name) + " takes no " + param_noun);
    }
    if (!ParseNumber(param_text, &param)) {
      return fail(eq_pos + 1, param_text,
                  param_noun + " must be a finite number");
    }
    if (!info.range.Contains(param)) {
      return fail(eq_pos + 1, param_text,
                  param_noun + " out of range for " + info.name);
    }
  }
  window->kind = kind;
  window->at = at;
  window->duration = duration;
  window->param = param;
  return true;
}

}  // namespace

std::string SpecError(int line, int column, const std::string& token,
                      const std::string& why) {
  std::string message =
      "line " + std::to_string(line) + ", col " + std::to_string(column) +
      ": " + why;
  if (!token.empty()) {
    message += " near '" + token + "'";
  }
  return message;
}

bool WindowGrammar::Parse(const std::string& spec, std::string* name,
                          std::vector<Window>* windows,
                          std::string* error) const {
  std::string parsed_name;
  std::vector<Window> parsed;
  bool name_allowed = named;
  size_t pos = 0;
  int line = 1;
  int column = 1;
  while (pos < spec.size()) {
    size_t sep = spec.find_first_of(";\n", pos);
    if (sep == std::string::npos) {
      sep = spec.size();
    }
    std::string piece = spec.substr(pos, sep - pos);
    int piece_column = column;
    // '#' starts a comment running to the end of the line; it also swallows
    // any ';' after it on that line, so scan ahead when one appears.
    size_t hash = piece.find('#');
    if (hash != std::string::npos) {
      piece.resize(hash);
      sep = std::min(spec.find('\n', pos), spec.size());
    }
    // Surrounding whitespace is separator decoration, not token content;
    // keep the column pointing at the window's first character.
    size_t lead = piece.find_first_not_of(" \t");
    if (lead == std::string::npos) {
      piece.clear();
    } else {
      piece = piece.substr(lead, piece.find_last_not_of(" \t") - lead + 1);
      piece_column += static_cast<int>(lead);
    }
    if (!piece.empty() && name_allowed) {
      // A leading "name:" tag may share its piece with the first window.
      size_t colon = piece.find(':');
      if (colon != std::string::npos && piece.find_first_of("@+=") > colon) {
        parsed_name = piece.substr(0, colon);
        if (!ValidName(parsed_name)) {
          if (error != nullptr) {
            *error = SpecError(line, piece_column, parsed_name,
                               "scenario name must be letters, digits, or '_'");
          }
          return false;
        }
        size_t rest = piece.find_first_not_of(" \t", colon + 1);
        if (rest == std::string::npos) {
          piece.clear();
        } else {
          piece_column += static_cast<int>(rest);
          piece = piece.substr(rest);
        }
      }
      name_allowed = false;
    }
    if (!piece.empty()) {
      Window window;
      if (!ParseWindow(*this, piece, line, piece_column, &window, error)) {
        return false;
      }
      parsed.push_back(window);
    }
    if (sep < spec.size() && spec[sep] == '\n') {
      ++line;
      column = 1;
    } else {
      column += static_cast<int>(sep - pos) + 1;
    }
    pos = sep + 1;
  }
  if (name != nullptr) {
    *name = std::move(parsed_name);
  }
  *windows = std::move(parsed);
  return true;
}

std::string WindowGrammar::ToString(const std::string& name,
                                    const std::vector<Window>& windows) const {
  std::string spec;
  if (!name.empty()) {
    spec = name + (windows.empty() ? ":" : ": ");
  }
  bool first = true;
  for (const Window& window : windows) {
    if (!first) {
      spec += ';';
    }
    first = false;
    const WindowKind& info = kinds[window.kind];
    spec += info.name;
    spec += '@';
    spec += SpellTime(window.at);
    spec += '+';
    spec += SpellTime(window.duration);
    if (info.takes_param) {
      spec += '=';
      spec += SpellParam(window.param);
    }
  }
  return spec;
}

}  // namespace odfault
