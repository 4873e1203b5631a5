// perf/json.hpp: the minimal JSON reader the baseline comparator diffs
// BENCH_*.json files with.
#include "perf/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace hmca::perf {
namespace {

TEST(PerfJson, ParsesPrimitives) {
  EXPECT_EQ(Json::parse("null").type(), Json::Type::kNull);
  EXPECT_TRUE(Json::parse("true").boolean());
  EXPECT_FALSE(Json::parse("false").boolean());
  EXPECT_DOUBLE_EQ(Json::parse("42").number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").number(), -350.0);
  EXPECT_DOUBLE_EQ(Json::parse("0.125").number(), 0.125);
  EXPECT_EQ(Json::parse("\"hi\"").string(), "hi");
}

TEST(PerfJson, ParsesStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d")").string(), "a\"b\\c/d");
  EXPECT_EQ(Json::parse(R"("x\ny\tz")").string(), "x\ny\tz");
}

TEST(PerfJson, RejectsUnicodeEscapes) {
  EXPECT_THROW(Json::parse("\"\\u0041\""), JsonError);
}

TEST(PerfJson, ParsesArraysAndObjects) {
  const Json v = Json::parse(R"({"a": [1, 2, 3], "b": {"c": "d"}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.at("a").array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").array()[1].number(), 2.0);
  EXPECT_EQ(v.at("b").string_at("c"), "d");
  EXPECT_THROW(v.number_at("a"), JsonError);
}

TEST(PerfJson, ObjectPreservesInsertionOrder) {
  const Json v = Json::parse(R"({"zz": 1, "aa": 2, "mm": 3})");
  const auto& obj = v.object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "zz");
  EXPECT_EQ(obj[1].first, "aa");
  EXPECT_EQ(obj[2].first, "mm");
}

TEST(PerfJson, FindReturnsNullptrAtThrows) {
  const Json v = Json::parse(R"({"x": 1})");
  EXPECT_NE(v.find("x"), nullptr);
  EXPECT_EQ(v.find("y"), nullptr);
  EXPECT_THROW(v.at("y"), JsonError);
  EXPECT_EQ(Json::parse("[1]").find("x"), nullptr);
}

TEST(PerfJson, TypedReadsThrowOnMismatch) {
  const Json v = Json::parse(R"({"s": "str", "n": 1})");
  EXPECT_THROW(v.at("s").number(), JsonError);
  EXPECT_THROW(v.at("n").string(), JsonError);
  EXPECT_THROW(v.at("n").array(), JsonError);
  EXPECT_THROW(v.at("n").object(), JsonError);
  EXPECT_THROW(v.at("n").boolean(), JsonError);
}

TEST(PerfJson, IntegerReadsRejectFractionsAndOutOfRange) {
  const Json v = Json::parse(
      R"({"i": 7, "neg": -2147483648, "max": 2147483647, "over": 2147483648,
          "frac": 2.5, "huge": 1e300, "minus": -1, "s": "7"})");
  EXPECT_EQ(v.integer_at<int>("i"), 7);
  EXPECT_EQ(v.integer_at<int>("neg"), -2147483648);
  EXPECT_EQ(v.integer_at<int>("max"), 2147483647);
  EXPECT_EQ(v.integer_at<std::size_t>("over"), 2147483648u);
  EXPECT_THROW(v.integer_at<int>("over"), JsonError);
  EXPECT_THROW(v.integer_at<int>("frac"), JsonError);
  EXPECT_THROW(v.integer_at<std::size_t>("huge"), JsonError);
  EXPECT_THROW(v.integer_at<std::size_t>("minus"), JsonError);
  EXPECT_THROW(v.integer_at<int>("s"), JsonError);
  try {
    v.integer_at<int>("huge");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("got 1e+300"), std::string::npos)
        << e.what();
  }
}

TEST(PerfJson, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);  // trailing non-whitespace
}

TEST(PerfJson, RejectsNestingBeyondTheDepthLimit) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(Json::parse(nested(kMaxJsonDepth)).is_array());
  try {
    Json::parse(nested(kMaxJsonDepth + 1));
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(std::string(e.what()),
              "json: nesting deeper than 512 levels at offset 512");
  }
  // Far past the limit: a named error, not a stack overflow.
  EXPECT_THROW(Json::parse(std::string(200000, '[')), JsonError);
  EXPECT_THROW(Json::parse(std::string(200000, '{')), JsonError);
}

TEST(PerfJson, AcceptsTrailingWhitespace) {
  EXPECT_DOUBLE_EQ(Json::parse(" 7 \n").number(), 7.0);
}

TEST(PerfJson, ParseJsonFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "perf_json_test.json";
  {
    std::ofstream os(path);
    os << R"({"format": "hmca-bench-1", "scenarios": []})";
  }
  const Json v = parse_json_file(path);
  EXPECT_EQ(v.string_at("format"), "hmca-bench-1");
  EXPECT_TRUE(v.at("scenarios").is_array());
  std::remove(path.c_str());
}

TEST(PerfJson, ParseJsonFileThrowsOnMissingPath) {
  EXPECT_THROW(parse_json_file("/nonexistent/dir/nope.json"), JsonError);
}

}  // namespace
}  // namespace hmca::perf
