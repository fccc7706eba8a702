// Edited copies of a JSON document, for reader tests that build malformed
// input.  JsonValue itself only grows (Set, Append), so an edit copies.

#ifndef TESTS_HARNESS_JSON_EDIT_H_
#define TESTS_HARNESS_JSON_EDIT_H_

#include <cstddef>
#include <string>

#include "src/harness/json.h"

namespace odharness {

// `object` without `key`.
inline JsonValue Without(const JsonValue& object, const std::string& key) {
  JsonValue copy = JsonValue::MakeObject();
  for (const auto& [k, v] : object.object()) {
    if (k != key) {
      copy.Set(k, v);
    }
  }
  return copy;
}

// `array` with element `index` replaced by `value`.
inline JsonValue Replaced(const JsonValue& array, size_t index,
                          const JsonValue& value) {
  JsonValue copy = JsonValue::MakeArray();
  for (size_t i = 0; i < array.array().size(); ++i) {
    copy.Append(i == index ? value : array.array()[i]);
  }
  return copy;
}

}  // namespace odharness

#endif  // TESTS_HARNESS_JSON_EDIT_H_
