#include "src/harness/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace odharness {

namespace {

const std::string kEmptyString;
const JsonValue::Array kEmptyArray;
const JsonValue::Object kEmptyObject;

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    *out += "null";
    return;
  }
  // Shortest representation that round-trips the exact double.
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  if (ec != std::errc()) {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    *out += buf;
    return;
  }
  out->append(buf, ptr);
}

// Recursive-descent parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> ParseDocument() {
    std::optional<JsonValue> value = ParseValue();
    SkipWhitespace();
    if (!value.has_value() || pos_ != text_.size()) {
      return std::nullopt;
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return std::nullopt;
    }
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == JsonValue::kMaxParseDepth) {
        return std::nullopt;
      }
      ++depth_;
      std::optional<JsonValue> nested = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return nested;
    }
    if (c == '"') {
      std::optional<std::string> s = ParseString();
      if (!s.has_value()) {
        return std::nullopt;
      }
      return JsonValue(*std::move(s));
    }
    if (ConsumeLiteral("true")) {
      return JsonValue(true);
    }
    if (ConsumeLiteral("false")) {
      return JsonValue(false);
    }
    if (ConsumeLiteral("null")) {
      return JsonValue();
    }
    return ParseNumber();
  }

  std::optional<JsonValue> ParseObject() {
    if (!Consume('{')) {
      return std::nullopt;
    }
    JsonValue object = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) {
      return object;
    }
    while (true) {
      SkipWhitespace();
      std::optional<std::string> key = ParseString();
      if (!key.has_value() || !Consume(':')) {
        return std::nullopt;
      }
      std::optional<JsonValue> value = ParseValue();
      if (!value.has_value()) {
        return std::nullopt;
      }
      object.Set(*std::move(key), *std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return object;
      }
      return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseArray() {
    if (!Consume('[')) {
      return std::nullopt;
    }
    JsonValue array = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) {
      return array;
    }
    while (true) {
      std::optional<JsonValue> value = ParseValue();
      if (!value.has_value()) {
        return std::nullopt;
      }
      array.Append(*std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return array;
      }
      return std::nullopt;
    }
  }

  std::optional<std::string> ParseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return std::nullopt;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return std::nullopt;
          }
          unsigned code = 0;
          auto [ptr, ec] = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || ptr != text_.data() + pos_ + 4) {
            return std::nullopt;
          }
          pos_ += 4;
          // UTF-8 encode the basic-multilingual-plane code point.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // Unterminated string.
  }

  std::optional<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return std::nullopt;
    }
    double value = 0.0;
    auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      return std::nullopt;
    }
    return JsonValue(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // Arrays and objects currently open.
};

}  // namespace

JsonValue::Type JsonValue::type() const {
  switch (value_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kBool;
    case 2:
      return Type::kNumber;
    case 3:
      return Type::kString;
    case 4:
      return Type::kArray;
    default:
      return Type::kObject;
  }
}

double JsonValue::AsDouble(double fallback) const {
  if (const double* d = std::get_if<double>(&value_)) {
    return *d;
  }
  return fallback;
}

const std::string& JsonValue::AsString() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) {
    return *s;
  }
  return kEmptyString;
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  if (!std::holds_alternative<Object>(value_)) {
    value_ = Object{};
  }
  Object& object = std::get<Object>(value_);
  for (auto& [k, v] : object) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object.emplace_back(key, std::move(value));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (const Object* object = std::get_if<Object>(&value_)) {
    for (const auto& [k, v] : *object) {
      if (k == key) {
        return &v;
      }
    }
  }
  return nullptr;
}

double JsonValue::DoubleAt(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr ? value->AsDouble(fallback) : fallback;
}

void JsonValue::Append(JsonValue value) {
  if (!std::holds_alternative<Array>(value_)) {
    value_ = Array{};
  }
  std::get<Array>(value_).push_back(std::move(value));
}

const JsonValue::Array& JsonValue::array() const {
  if (const Array* array = std::get_if<Array>(&value_)) {
    return *array;
  }
  return kEmptyArray;
}

const JsonValue::Object& JsonValue::object() const {
  if (const Object* object = std::get_if<Object>(&value_)) {
    return *object;
  }
  return kEmptyObject;
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  if (indent > 0) {
    out.push_back('\n');
  }
  return out;
}

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  const std::string newline =
      indent > 0 ? "\n" + std::string(static_cast<size_t>(indent) * (depth + 1), ' ')
                 : "";
  const std::string closing =
      indent > 0 ? "\n" + std::string(static_cast<size_t>(indent) * depth, ' ') : "";
  switch (type()) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, std::get<double>(value_));
      break;
    case Type::kString:
      AppendEscaped(out, std::get<std::string>(value_));
      break;
    case Type::kArray: {
      const Array& array = std::get<Array>(value_);
      if (array.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < array.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        *out += newline;
        array[i].DumpTo(out, indent, depth + 1);
      }
      *out += closing;
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& object = std::get<Object>(value_);
      if (object.empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        *out += newline;
        AppendEscaped(out, key);
        *out += indent > 0 ? ": " : ":";
        value.DumpTo(out, indent, depth + 1);
      }
      *out += closing;
      out->push_back('}');
      break;
    }
  }
}

std::optional<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace odharness
