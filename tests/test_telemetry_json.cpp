#include "telemetry/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

namespace gsph::telemetry {
namespace {

TEST(Json, DefaultIsNull)
{
    Json j;
    EXPECT_TRUE(j.is_null());
    EXPECT_EQ(j.dump(), "null");
}

TEST(Json, Scalars)
{
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(-3).dump(), "-3");
    EXPECT_EQ(Json(1.5).dump(), "1.5");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegralDoublesDumpWithoutExponent)
{
    EXPECT_EQ(Json(1410.0).dump(), "1410");
    EXPECT_EQ(Json(0.0).dump(), "0");
    EXPECT_EQ(Json(-250000.0).dump(), "-250000");
    EXPECT_EQ(Json(-0.0).dump(), "-0");
    // Below 1e15 an integral value prints as "%.0f" does; from 1e15 on it
    // takes the shortest round-trip form.
    std::vector<double> integral = {999999999999999.0, -999999999999999.0};
    for (double v = 1.0; v < 1e15; v *= 3.0) {
        integral.push_back(std::floor(v));
        integral.push_back(-std::floor(v) - 7.0);
    }
    for (const double v : integral) {
        ASSERT_EQ(v, std::floor(v)) << v;
        char expected[64];
        std::snprintf(expected, sizeof(expected), "%.0f", v);
        EXPECT_EQ(Json(v).dump(), expected);
    }
    EXPECT_EQ(Json(1e15).dump(), "1e+15");
    EXPECT_EQ(Json(-4503599627370496.0).dump(), "-4503599627370496");
}

TEST(Json, NonFiniteDumpsAsNull)
{
    EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j["zeta"] = 1;
    j["alpha"] = 2;
    EXPECT_EQ(j.dump(), "{\"zeta\":1,\"alpha\":2}");
    EXPECT_TRUE(j.contains("alpha"));
    EXPECT_FALSE(j.contains("beta"));
    EXPECT_EQ(j.at("alpha").as_number(), 2.0);
}

TEST(Json, ArrayPushBack)
{
    Json j = Json::array();
    j.push_back(1);
    j.push_back("two");
    EXPECT_EQ(j.size(), 2u);
    EXPECT_EQ(j.at(0).as_number(), 1.0);
    EXPECT_EQ(j.at(1).as_string(), "two");
    EXPECT_THROW(j.at(2), std::out_of_range);
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(Json("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, TypedAccessorsThrowOnMismatch)
{
    EXPECT_THROW(Json(1.0).as_string(), std::logic_error);
    EXPECT_THROW(Json("x").as_number(), std::logic_error);
    EXPECT_THROW(Json().as_bool(), std::logic_error);
}

TEST(Json, ParseRoundTrip)
{
    Json j = Json::object();
    j["name"] = "greensph";
    j["pi"] = 3.141592653589793;
    j["n"] = 7;
    j["flags"] = Json::array();
    j["flags"].push_back(true);
    j["flags"].push_back(Json());
    Json nested = Json::object();
    nested["k"] = "v";
    j["nested"] = std::move(nested);

    const Json back = Json::parse(j.dump());
    EXPECT_EQ(back.at("name").as_string(), "greensph");
    EXPECT_DOUBLE_EQ(back.at("pi").as_number(), 3.141592653589793);
    EXPECT_EQ(back.at("n").as_number(), 7.0);
    EXPECT_TRUE(back.at("flags").at(0).as_bool());
    EXPECT_TRUE(back.at("flags").at(1).is_null());
    EXPECT_EQ(back.at("nested").at("k").as_string(), "v");

    // Pretty output parses back to the same document.
    const Json pretty = Json::parse(j.dump(2));
    EXPECT_EQ(pretty.dump(), j.dump());
}

TEST(Json, ParseEscapes)
{
    const Json j = Json::parse("\"a\\n\\t\\u0041\\\\\"");
    EXPECT_EQ(j.as_string(), "a\n\tA\\");
}

TEST(Json, ParseRejectsMalformed)
{
    EXPECT_THROW(Json::parse(""), std::invalid_argument);
    EXPECT_THROW(Json::parse("{"), std::invalid_argument);
    EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
    EXPECT_THROW(Json::parse("nul"), std::invalid_argument);
    EXPECT_THROW(Json::parse("1 trailing"), std::invalid_argument);
    EXPECT_THROW(Json::parse("\"unterminated"), std::invalid_argument);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), std::invalid_argument);
}

TEST(Json, EscapeRoundTripRegression)
{
    // Regression for the escaping fix: control characters must escape,
    // well-formed UTF-8 must pass through byte-for-byte, and invalid bytes
    // must become U+FFFD — never raw bytes strict JSON consumers reject.
    const std::string controls = "a\x01\x02\x1f\x7f";
    EXPECT_EQ(json_escape(controls), "a\\u0001\\u0002\\u001f\x7f");

    const std::string utf8 = "\xcf\x80\xcf\x86 \xe2\x9c\x93 \xf0\x9f\x9a\x80";
    EXPECT_EQ(json_escape(utf8), utf8); // "πφ ✓ 🚀" untouched

    EXPECT_EQ(json_escape(std::string(1, '\x80')), "\\ufffd"); // lone continuation
    EXPECT_EQ(json_escape("\xe2\x9c"), "\\ufffd\\ufffd");      // truncated 3-byte
    EXPECT_EQ(json_escape("\xc0\xaf"), "\\ufffd\\ufffd");      // overlong encoding
    EXPECT_EQ(json_escape("\xed\xa0\x80"), "\\ufffd\\ufffd\\ufffd"); // surrogate

    // parse(dump()) restores escaped documents exactly, compact and pretty.
    Json doc = Json::object();
    doc["ctl"] = std::string("tab\t nl\n \x01");
    doc["utf8"] = utf8;
    const Json back = Json::parse(doc.dump());
    EXPECT_EQ(back.at("ctl").as_string(), "tab\t nl\n \x01");
    EXPECT_EQ(back.at("utf8").as_string(), utf8);
    EXPECT_EQ(Json::parse(doc.dump(2)).dump(), doc.dump());
}

TEST(Json, ParseNumbers)
{
    EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
    EXPECT_DOUBLE_EQ(Json::parse("0.125").as_number(), 0.125);
    EXPECT_DOUBLE_EQ(Json::parse("1e-3").as_number(), 1e-3);
}

} // namespace
} // namespace gsph::telemetry
