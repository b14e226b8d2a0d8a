// Wire-protocol tests for performad: the flat JSON codec (parse,
// escape, number round-trips, malformed-input rejection with
// positions), model-spec parsing with validation, and the canonical
// cache key's bit-exactness and field sensitivity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "daemon/jsonio.h"
#include "daemon/query.h"
#include "obs/trace.h"

namespace performa::daemon {
namespace {

JsonObject parse_ok(const std::string& text) {
  JsonObject obj;
  std::string error;
  EXPECT_TRUE(parse_json_object(text, obj, error)) << error;
  return obj;
}

TEST(JsonIoTest, ParsesFlatObject) {
  const JsonObject obj = parse_ok(
      R"({"op":"tail","k":25,"rho":0.75,"refresh":true,"note":null})");
  EXPECT_EQ(obj.string("op", ""), "tail");
  EXPECT_DOUBLE_EQ(obj.number("k", -1.0), 25.0);
  EXPECT_DOUBLE_EQ(obj.number("rho", -1.0), 0.75);
  EXPECT_TRUE(obj.boolean("refresh", false));
  EXPECT_TRUE(obj.has("note"));
  EXPECT_EQ(obj.find("note")->kind, JsonValue::Kind::kNull);
  EXPECT_FALSE(obj.has("absent"));
  EXPECT_DOUBLE_EQ(obj.number("absent", 7.0), 7.0);
}

TEST(JsonIoTest, WhitespaceAndEmptyObject) {
  parse_ok("  { }  ");
  const JsonObject obj = parse_ok("{ \"a\" :\t1 ,\n \"b\" : \"x\" }");
  EXPECT_DOUBLE_EQ(obj.number("a", 0.0), 1.0);
  EXPECT_EQ(obj.string("b", ""), "x");
}

TEST(JsonIoTest, StringEscapes) {
  const JsonObject obj =
      parse_ok(R"({"s":"a\"b\\c\nd\teA"})");
  EXPECT_EQ(obj.string("s", ""), "a\"b\\c\nd\teA");
}

TEST(JsonIoTest, DuplicateKeysLastWins) {
  const JsonObject obj = parse_ok(R"({"k":1,"k":2})");
  EXPECT_DOUBLE_EQ(obj.number("k", 0.0), 2.0);
}

TEST(JsonIoTest, NumbersRoundTripThroughWriter) {
  const double values[] = {0.0,     1.0,       -1.5,  0.1,
                           1e-300,  1.7e308,   M_PI,  2.576,
                           4.669976421219476, -0.0};
  for (double v : values) {
    JsonWriter w;
    w.field("v", v);
    const JsonObject obj = parse_ok(std::move(w).str());
    EXPECT_EQ(obj.number("v", 99.0), v) << "value " << v;
  }
}

TEST(JsonIoTest, EdgeDoublesRoundTripBitExactly) {
  // The daemon's cache journal persists R/pi entries through this codec;
  // a single misrounded ulp would trip the rehydration mass check, so
  // the round-trip must be bit-exact across the entire double range.
  const double edges[] = {
      std::numeric_limits<double>::denorm_min(),   // smallest subnormal
      4.9406564584124654e-310,                     // mid-range subnormal
      std::numeric_limits<double>::min(),          // smallest normal
      std::nextafter(1.0, 0.0),                    // 1 - ulp/2
      std::nextafter(1.0, 2.0),                    // 1 + ulp
      std::numeric_limits<double>::max(),          // DBL_MAX
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
  };
  for (double v : edges) {
    JsonWriter w;
    w.field("v", v);
    const JsonObject obj = parse_ok(std::move(w).str());
    const double back = obj.number("v", 99.0);
    EXPECT_EQ(back, v) << "value " << v;
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << "sign of " << v;
  }
}

TEST(JsonIoTest, NegativeZeroKeepsItsSign) {
  JsonWriter w;
  w.field("v", -0.0);
  const std::string line = std::move(w).str();
  const JsonObject obj = parse_ok(line);
  const double back = obj.number("v", 99.0);
  EXPECT_EQ(back, 0.0);
  EXPECT_TRUE(std::signbit(back)) << "wire form: " << line;
}

TEST(JsonIoTest, NonFiniteNumbersSerializeAsNull) {
  JsonWriter w;
  w.field("nan", std::numeric_limits<double>::quiet_NaN());
  w.field("inf", std::numeric_limits<double>::infinity());
  const std::string line = std::move(w).str();
  EXPECT_EQ(line, R"({"nan":null,"inf":null})");
}

TEST(JsonIoTest, WriterEscapesStrings) {
  JsonWriter w;
  w.field("s", std::string("a\"b\\c\nd"));
  const std::string line = std::move(w).str();
  const JsonObject obj = parse_ok(line);
  EXPECT_EQ(obj.string("s", ""), "a\"b\\c\nd");
}

TEST(JsonIoTest, EscapeTableRoundTripsThroughTheParser) {
  // One escaper serves the wire protocol, the structured log and the
  // trace: every control byte, '"' and '\\' gets its JSON short form
  // where one exists and \u00XX otherwise, and parses back to itself.
  std::vector<std::pair<char, std::string>> table;
  for (int b = 0; b < 0x20; ++b) {
    char u[8];
    std::snprintf(u, sizeof u, "\\u%04x", b);
    table.emplace_back(static_cast<char>(b), u);
  }
  table[0x08].second = "\\b";
  table[0x09].second = "\\t";
  table[0x0a].second = "\\n";
  table[0x0c].second = "\\f";
  table[0x0d].second = "\\r";
  table.emplace_back('"', "\\\"");
  table.emplace_back('\\', "\\\\");
  for (const auto& [byte, escaped] : table) {
    SCOPED_TRACE("byte " + std::to_string(static_cast<int>(byte)));
    const std::string raw = std::string("a") + byte + "z";
    std::string out;
    obs::append_json_escaped(out, raw);
    EXPECT_EQ(out, "a" + escaped + "z");
    JsonWriter w;
    w.field(raw, raw);
    const JsonObject obj = parse_ok(std::move(w).str());
    ASSERT_EQ(obj.fields().size(), 1u);
    EXPECT_EQ(obj.fields()[0].first, raw);
    EXPECT_EQ(obj.string(raw, ""), raw);
  }
}

TEST(JsonIoTest, WriterArraysParseElsewhere) {
  JsonWriter w;
  w.field_array("xs", {1.0, 0.5, 0.25});
  EXPECT_EQ(std::move(w).str(), R"({"xs":[1,0.5,0.25]})");
}

TEST(JsonIoTest, MalformedInputsRejectedWithPosition) {
  const char* bad[] = {
      "",                      // empty
      "null",                  // not an object
      "[1,2]",                 // array at top level
      "{\"a\":1",              // unterminated object
      "{\"a\" 1}",             // missing colon
      "{\"a\":}",              // missing value
      "{\"a\":1,}",            // trailing comma
      "{\"a\":{\"b\":1}}",     // nested object (flat protocol)
      "{\"a\":[1]}",           // nested array
      "{\"a\":tru}",           // bad literal
      "{\"a\":1} x",           // trailing bytes
      "{\"a\":\"unterminated", // unterminated string
      "{\"a\":\"bad\\q\"}",    // unknown escape
      "{\"a\":--1}",           // malformed number
  };
  for (const char* text : bad) {
    JsonObject obj;
    std::string error;
    EXPECT_FALSE(parse_json_object(text, obj, error)) << "input: " << text;
    EXPECT_NE(error.find("at position"), std::string::npos)
        << "error must carry a position: " << error;
  }
}

TEST(ModelSpecTest, DefaultsMatchThePaperExample) {
  const JsonObject obj = parse_ok(R"({"op":"mean"})");
  ModelSpec spec;
  std::string error;
  ASSERT_TRUE(parse_model(obj, spec, error)) << error;
  EXPECT_EQ(spec.n_servers, 2u);
  EXPECT_DOUBLE_EQ(spec.nu_p, 2.0);
  EXPECT_DOUBLE_EQ(spec.delta, 0.2);
  EXPECT_DOUBLE_EQ(spec.availability(), 0.9);
  EXPECT_NEAR(spec.mean_service_rate(), 3.68, 1e-12);
}

TEST(ModelSpecTest, RejectsOutOfRangeFields) {
  const char* bad[] = {
      R"({"n":0})",            R"({"n":1.5})",
      R"({"nu_p":-1})",        R"({"delta":1.5})",
      R"({"mttf":0})",         R"({"mttr":-2})",
      R"({"repair":"weird"})", R"({"repair":7})",
      R"({"repair":"tpt","tpt_alpha":1.0})",
      R"({"repair":"tpt","tpt_theta":1.0})",
      R"({"repair":"tpt","tpt_phases":0})",
      R"({"repair":"erlang","erlang_k":0})",
      R"({"rho":0})",          R"({"rho":1})",
      R"({"rho":"high"})",
  };
  for (const char* text : bad) {
    const JsonObject obj = parse_ok(text);
    ModelSpec spec;
    std::string error;
    EXPECT_FALSE(parse_model(obj, spec, error)) << "input: " << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ModelSpecTest, TptShapeOnlyValidatedForTptRepair) {
  // Leftover tpt fields must not invalidate an exp-repair request.
  const JsonObject obj =
      parse_ok(R"({"repair":"exp","tpt_alpha":0.5,"tpt_theta":2})");
  ModelSpec spec;
  std::string error;
  EXPECT_TRUE(parse_model(obj, spec, error)) << error;
}

TEST(CanonicalKeyTest, IdenticalSpecsShareAKey) {
  ModelSpec a, b;
  a.repair = b.repair = "tpt";
  a.rho = b.rho = 0.7;
  EXPECT_EQ(canonical_model_key(a), canonical_model_key(b));
}

TEST(CanonicalKeyTest, EveryRelevantFieldChangesTheKey) {
  ModelSpec base;
  base.repair = "tpt";
  const std::string key = canonical_model_key(base);

  ModelSpec m = base;
  m.n_servers = 3;
  EXPECT_NE(canonical_model_key(m), key);
  m = base;
  m.nu_p = 2.5;
  EXPECT_NE(canonical_model_key(m), key);
  m = base;
  m.delta = 0.3;
  EXPECT_NE(canonical_model_key(m), key);
  m = base;
  m.mttf = 80.0;
  EXPECT_NE(canonical_model_key(m), key);
  m = base;
  m.mttr = 12.0;
  EXPECT_NE(canonical_model_key(m), key);
  m = base;
  m.tpt_alpha = 1.6;
  EXPECT_NE(canonical_model_key(m), key);
  m = base;
  m.tpt_theta = 0.4;
  EXPECT_NE(canonical_model_key(m), key);
  m = base;
  m.tpt_phases = 12;
  EXPECT_NE(canonical_model_key(m), key);
  m = base;
  m.rho = 0.71;
  EXPECT_NE(canonical_model_key(m), key);
  m = base;
  m.repair = "exp";
  EXPECT_NE(canonical_model_key(m), key);
}

TEST(CanonicalKeyTest, IrrelevantShapeFieldsDoNotChangeTheKey) {
  ModelSpec a, b;
  a.repair = b.repair = "exp";
  b.tpt_alpha = 1.9;  // unused by exp repair
  b.tpt_phases = 30;
  b.erlang_k = 7;
  EXPECT_EQ(canonical_model_key(a), canonical_model_key(b));
}

TEST(CanonicalKeyTest, KeyIsBitExactNotDecimal) {
  ModelSpec a, b;
  a.rho = 0.7;
  b.rho = 0.7 + 1e-17;  // same double after rounding
  EXPECT_EQ(canonical_model_key(a), canonical_model_key(b));
  b.rho = std::nextafter(0.7, 1.0);  // adjacent double: different key
  EXPECT_NE(canonical_model_key(a), canonical_model_key(b));
}

}  // namespace
}  // namespace performa::daemon
