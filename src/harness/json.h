// Minimal JSON document model for the benchmark harness.
//
// Run artifacts (src/harness/artifact.h) are written as JSON so that external
// tooling can track the repo's performance trajectory; JsonValue is the small
// value type they serialize through, plus a parser so artifacts can be read
// back (round-trip tested).  Numbers are emitted with shortest-round-trip
// precision, so double values survive Dump -> Parse exactly.

#ifndef SRC_HARNESS_JSON_H_
#define SRC_HARNESS_JSON_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace odharness {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  // Insertion-ordered: artifacts keep a stable, human-diffable key order.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}  // NOLINT(google-explicit-constructor)
  JsonValue(double d) : value_(d) {}  // NOLINT(google-explicit-constructor)
  JsonValue(int i) : value_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(uint64_t u) : value_(static_cast<double>(u)) {}  // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}  // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}  // NOLINT

  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Type type() const;
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool AsBool(bool fallback = false) const;
  double AsDouble(double fallback = 0.0) const;
  const std::string& AsString() const;  // empty string if not a string

  // Object helpers.  Set() appends or replaces; Find() returns nullptr when
  // the key is absent or this value is not an object; Remove() erases a key
  // and reports whether it was present.
  void Set(const std::string& key, JsonValue value);
  const JsonValue* Find(const std::string& key) const;
  JsonValue* Find(const std::string& key);
  bool Remove(const std::string& key);
  // Convenience: Find(key)->AsDouble(fallback) tolerating a missing key.
  double DoubleAt(const std::string& key, double fallback = 0.0) const;

  // Array helper.
  void Append(JsonValue value);

  const Array& array() const;    // empty if not an array
  Array& array();                // coerces to an array, like Append()
  const Object& object() const;  // empty if not an object

  // Serializes the value.  indent > 0 pretty-prints with that many spaces
  // per nesting level; indent == 0 emits a compact single line.
  std::string Dump(int indent = 0) const;

  // Parses a JSON document.  Returns nullopt on malformed input, trailing
  // garbage, or arrays/objects nested deeper than kMaxParseDepth (the
  // parser recurses once per level, so unbounded nesting would overflow
  // the stack; committed artifacts nest fewer than 10 deep).
  static constexpr int kMaxParseDepth = 256;
  static std::optional<JsonValue> Parse(std::string_view text);

 private:
  explicit JsonValue(Array a) : value_(std::move(a)) {}
  explicit JsonValue(Object o) : value_(std::move(o)) {}

  void DumpTo(std::string* out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace odharness

#endif  // SRC_HARNESS_JSON_H_
