#include "src/harness/json.h"

#include <gtest/gtest.h>

#include <string>

namespace odharness {
namespace {

TEST(JsonTest, ScalarDump) {
  EXPECT_EQ(JsonValue().Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(3).Dump(), "3");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, StringEscaping) {
  JsonValue v(std::string("a\"b\\c\n\td"));
  std::string dumped = v.Dump();
  auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), "a\"b\\c\n\td");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("zebra", 1);
  obj.Set("apple", 2);
  EXPECT_EQ(obj.Dump(), "{\"zebra\":1,\"apple\":2}");
}

TEST(JsonTest, SetReplacesExistingKey) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("k", 1);
  obj.Set("k", 2);
  ASSERT_EQ(obj.object().size(), 1u);
  EXPECT_DOUBLE_EQ(obj.DoubleAt("k"), 2.0);
}

TEST(JsonTest, FindAndDoubleAt) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("x", 4.5);
  ASSERT_NE(obj.Find("x"), nullptr);
  EXPECT_DOUBLE_EQ(obj.Find("x")->AsDouble(), 4.5);
  EXPECT_EQ(obj.Find("y"), nullptr);
  EXPECT_DOUBLE_EQ(obj.DoubleAt("y", -1.0), -1.0);
}

TEST(JsonTest, DoublesRoundTripExactly) {
  const double values[] = {0.0,  -0.0,    1.0 / 3.0,          470.1,
                           1e-9, 1e300,   123456789.123456789, -2.5};
  for (double d : values) {
    auto parsed = JsonValue::Parse(JsonValue(d).Dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->AsDouble(), d);
  }
}

TEST(JsonTest, ParseNestedDocument) {
  auto parsed = JsonValue::Parse(
      R"({"a": [1, 2, {"b": true}], "c": null, "d": "s"})");
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[2].Find("b")->Dump(), "true");
  EXPECT_EQ(parsed->Find("c")->type(), JsonValue::Type::kNull);
  EXPECT_EQ(parsed->Find("d")->AsString(), "s");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").has_value());
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(JsonValue::Parse("1 trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse("nul").has_value());
}

// A deeply nested document used to overflow the recursive parser's stack
// and segfault every reader (odbench diff, --traces, artifact replay).
TEST(JsonTest, ParseRejectsNestingPastTheCapWithoutCrashing) {
  EXPECT_FALSE(JsonValue::Parse(std::string(1000000, '[')).has_value());
  EXPECT_FALSE(JsonValue::Parse(std::string(1000000, '[') +
                                std::string(1000000, ']'))
                   .has_value());
  std::string objects;
  for (int i = 0; i < 100000; ++i) {
    objects += "{\"a\":";
  }
  EXPECT_FALSE(JsonValue::Parse(objects).has_value());
}

TEST(JsonTest, ParseAcceptsNestingUpToTheCap) {
  const size_t cap = JsonValue::kMaxParseDepth;
  std::string at_cap = std::string(cap, '[') + std::string(cap, ']');
  auto parsed = JsonValue::Parse(at_cap);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Dump(), at_cap);
  EXPECT_FALSE(JsonValue::Parse(std::string(cap + 1, '[') +
                                std::string(cap + 1, ']'))
                   .has_value());
  // Objects and arrays count against the same cap.
  std::string mixed;
  for (size_t i = 0; i < cap / 2; ++i) {
    mixed += "{\"k\":[";
  }
  mixed += "1";
  for (size_t i = 0; i < cap / 2; ++i) {
    mixed += "]}";
  }
  EXPECT_TRUE(JsonValue::Parse(mixed).has_value());
  EXPECT_FALSE(JsonValue::Parse("[" + mixed + "]").has_value());
}

TEST(JsonTest, PrettyPrintRoundTrips) {
  JsonValue obj = JsonValue::MakeObject();
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(1);
  arr.Append("two");
  obj.Set("list", std::move(arr));
  obj.Set("flag", true);
  std::string pretty = obj.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto parsed = JsonValue::Parse(pretty);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Dump(), obj.Dump());
}

}  // namespace
}  // namespace odharness
