#include "service/json_util.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace saphyra {
namespace {

TEST(JsonParse, Scalars) {
  JsonValue v;
  ASSERT_TRUE(ParseJson("null", &v).ok());
  EXPECT_TRUE(v.is_null());

  ASSERT_TRUE(ParseJson("true", &v).ok());
  EXPECT_EQ(v.type, JsonValue::Type::kBool);
  EXPECT_TRUE(v.bool_value);

  ASSERT_TRUE(ParseJson("false", &v).ok());
  EXPECT_FALSE(v.bool_value);

  ASSERT_TRUE(ParseJson("  42 ", &v).ok());
  EXPECT_EQ(v.type, JsonValue::Type::kNumber);
  EXPECT_TRUE(v.is_uint);
  EXPECT_EQ(v.uint_value, 42u);
  EXPECT_DOUBLE_EQ(v.number_value, 42.0);

  ASSERT_TRUE(ParseJson("-3.5e2", &v).ok());
  EXPECT_FALSE(v.is_uint);
  EXPECT_DOUBLE_EQ(v.number_value, -350.0);

  ASSERT_TRUE(ParseJson("\"hi\\n\\\"there\\\"\"", &v).ok());
  EXPECT_EQ(v.type, JsonValue::Type::kString);
  EXPECT_EQ(v.string_value, "hi\n\"there\"");
}

TEST(JsonParse, LargeSeedKeepsExactUint) {
  // Seeds are uint64; doubles lose bits beyond 2^53.
  JsonValue v;
  ASSERT_TRUE(ParseJson("18446744073709551615", &v).ok());
  EXPECT_TRUE(v.is_uint);
  EXPECT_EQ(v.uint_value, 18446744073709551615ull);
}

TEST(JsonParse, NestedDocument) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(
                  R"({"id":"q1","targets":[1,2,3],"opts":{"eps":0.05},"flag":true})",
                  &v)
                  .ok());
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  ASSERT_NE(v.Find("targets"), nullptr);
  EXPECT_EQ(v.Find("targets")->array.size(), 3u);
  EXPECT_EQ(v.Find("targets")->array[1].uint_value, 2u);
  ASSERT_NE(v.Find("opts"), nullptr);
  ASSERT_NE(v.Find("opts")->Find("eps"), nullptr);
  EXPECT_DOUBLE_EQ(v.Find("opts")->Find("eps")->number_value, 0.05);
  EXPECT_EQ(v.Find("nope"), nullptr);
}

TEST(JsonParse, EmptyContainers) {
  JsonValue v;
  ASSERT_TRUE(ParseJson("{}", &v).ok());
  EXPECT_TRUE(v.object.empty());
  ASSERT_TRUE(ParseJson("[]", &v).ok());
  EXPECT_TRUE(v.array.empty());
}

TEST(JsonParse, UnicodeEscape) {
  JsonValue v;
  ASSERT_TRUE(ParseJson("\"\\u0041\\u00e9\\u20ac\"", &v).ok());
  EXPECT_EQ(v.string_value, "A\xc3\xa9\xe2\x82\xac");  // A é €
}

TEST(JsonParse, Rejections) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("", &v).ok());
  EXPECT_FALSE(ParseJson("{", &v).ok());
  EXPECT_FALSE(ParseJson("[1,]", &v).ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,}", &v).ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}", &v).ok());
  EXPECT_FALSE(ParseJson("\"unterminated", &v).ok());
  EXPECT_FALSE(ParseJson("012a", &v).ok());
  // RFC 8259 number grammar: strtod is laxer than JSON and must not leak
  // through.
  EXPECT_FALSE(ParseJson("+5", &v).ok());
  EXPECT_FALSE(ParseJson(".5", &v).ok());
  EXPECT_FALSE(ParseJson("5.", &v).ok());
  EXPECT_FALSE(ParseJson("01", &v).ok());
  EXPECT_FALSE(ParseJson("-", &v).ok());
  EXPECT_FALSE(ParseJson("1e", &v).ok());
  EXPECT_FALSE(ParseJson("1e+", &v).ok());
  EXPECT_TRUE(ParseJson("0", &v).ok());
  EXPECT_TRUE(ParseJson("-0.5e+2", &v).ok());
  EXPECT_FALSE(ParseJson("NaN", &v).ok());
  EXPECT_FALSE(ParseJson("Infinity", &v).ok());
  EXPECT_FALSE(ParseJson("1e999", &v).ok());   // overflows to inf
  EXPECT_FALSE(ParseJson("{} {}", &v).ok());   // trailing garbage
  EXPECT_FALSE(ParseJson("\"\\ud800\"", &v).ok());  // surrogate
  EXPECT_FALSE(ParseJson("\"tab\there\"", &v).ok());  // raw control char
}

TEST(JsonParse, DeepNestingRejected) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  JsonValue v;
  EXPECT_FALSE(ParseJson(deep, &v).ok());
}

TEST(JsonQuoteTest, Escaping) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(JsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonNumberTest, RoundTripsBitwise) {
  const double values[] = {0.0,
                           1.0,
                           -1.5,
                           0.05,
                           1.0 / 3.0,
                           0.20745676337451485,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -0.0};
  for (double v : values) {
    const std::string s = JsonNumber(v);
    const double back = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(double)), 0)
        << s << " did not round trip";
  }
}

TEST(JsonNumberTest, SameTextAsThePrintfLadder) {
  // The printf ladder JsonNumber replaced: the first of %.15g, %.16g and
  // %.17g that strtod parses back equal. The text of every number must
  // not change.
  auto printf_ladder = [](double v) {
    char buf[32];
    for (int prec = 15; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
    return std::string(buf);
  };
  auto from_bits = [](uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  };
  std::vector<double> values = {0.0, -0.0};
  Rng rng(20251);
  for (int i = 0; i < 200000; ++i) {  // random bit patterns, NaN/inf too
    values.push_back(from_bits(rng.Next()));
  }
  for (int i = 0; i < 20000; ++i) {  // subnormals of both signs
    const uint64_t mantissa = rng.Next() & ((uint64_t{1} << 52) - 1);
    values.push_back(from_bits(mantissa | (rng.Next() & (uint64_t{1} << 63))));
  }
  const double kInf = std::numeric_limits<double>::infinity();
  for (int e = -330; e <= 308; ++e) {  // powers of ten and their neighbors
    const double p = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    for (double v : {p, std::nextafter(p, 0.0), std::nextafter(p, kInf)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  for (int i = 0; i < 20000; ++i) {  // integers at and above 2^53
    const int shift = 53 + static_cast<int>(rng.UniformInt(11));
    const uint64_t k = (uint64_t{1} << shift) + (rng.Next() >> (64 - shift));
    values.push_back(static_cast<double>(k));
  }
  for (int shift = 53; shift < 64; ++shift) {
    values.push_back(std::ldexp(1.0, shift));
  }
  size_t mismatches = 0;
  for (double v : values) {
    const std::string got = JsonNumber(v);
    const std::string want = printf_ladder(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << got << " != " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " numbers";
}

TEST(JsonNumberTest, QuoteParseRoundTrip) {
  // A serialized string survives the parser unchanged.
  const std::string original = "we\u00e9rd \"text\"\twith\nstuff\\";
  JsonValue v;
  ASSERT_TRUE(ParseJson(JsonQuote(original), &v).ok());
  EXPECT_EQ(v.string_value, original);
}

}  // namespace
}  // namespace saphyra
