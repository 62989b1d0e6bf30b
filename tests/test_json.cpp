// The shared JSON codec (obs/json): the escaper and the %.17g printer
// every writer uses, and the pull cursor every reader uses — RFC 8259
// escapes, checked integers, value skipping and error messages.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.h"

namespace numaio::obs::json {
namespace {

std::string written_string(std::string_view text) {
  std::ostringstream out;
  write_string(out, text);
  return out.str();
}

std::string written_number(double v) {
  std::ostringstream out;
  write_number(out, v);
  return out.str();
}

std::string error_of(std::string_view text, void (*read)(Cursor&)) {
  Cursor cur(text, "doc");
  try {
    read(cur);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(JsonWrite, StringEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(written_string("plain/é"), "\"plain/é\"");
  EXPECT_EQ(written_string("a\"b\\c\nd\te\x01" "f\x1f"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001f\\u001f\"");
  EXPECT_EQ(written_string(""), "\"\"");
}

TEST(JsonWrite, NumberIsPercent17g) {
  EXPECT_EQ(written_number(1.0), "1");
  EXPECT_EQ(written_number(-0.5), "-0.5");
  EXPECT_EQ(written_number(0.1), "0.10000000000000001");
  EXPECT_EQ(written_number(1e17), "1e+17");
  EXPECT_EQ(written_number(std::numeric_limits<double>::infinity()), "inf");
}

TEST(JsonCursor, EveryByteRoundTripsThroughTheEscaper) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  const std::string doc = written_string(all);
  Cursor cur(doc, "doc");
  EXPECT_EQ(cur.string(), all);
  cur.end();
}

TEST(JsonCursor, UnescapedStringsAreViewsIntoTheText) {
  const std::string doc = "\"name\"";
  Cursor cur(doc, "doc");
  const std::string_view v = cur.string();
  EXPECT_EQ(v, "name");
  EXPECT_EQ(v.data(), doc.data() + 1);
}

TEST(JsonCursor, DecodesRfc8259Escapes) {
  const std::string doc =
      "\"\\/\\b\\f\\r\\n\\t\\\"\\\\\\u00e9\\u20ac\\ud83d\\ude00\"";
  Cursor cur(doc, "doc");
  EXPECT_EQ(cur.string(),
            "/\b\f\r\n\t\"\\\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(JsonCursor, RejectsMalformedStrings) {
  for (const std::string doc :
       {"\"raw\nnewline\"", "\"\\x41\"", "\"\\u12g4\"", "\"\\u12\"",
        "\"\\ud83d\"", "\"\\ud83d\\u0041\"", "\"\\ude00\"", "\"open",
        "\"dangling\\"}) {
    EXPECT_THROW(Cursor(doc, "doc").string(), std::invalid_argument) << doc;
  }
}

TEST(JsonCursor, NumbersReadBackWhatTheWriterWrote) {
  for (const double v : {0.0, -0.0, 1.0, 0.1, -123.456, 1e17, 4.9e-324,
                         1.7976931348623157e308,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    const std::string doc = written_number(v);
    Cursor cur(doc, "doc");
    EXPECT_EQ(cur.number(), v) << doc;
    cur.end();
  }
  const std::string nan = written_number(std::nan(""));
  EXPECT_TRUE(std::isnan(Cursor(nan, "doc").number()));
}

TEST(JsonCursor, RejectsHexNumbersAndTrailingContent) {
  const auto number_then_end = [](Cursor& c) {
    c.number();
    c.end();
  };
  EXPECT_EQ(error_of("0x10", number_then_end),
            "doc: trailing content at offset 1");
  EXPECT_EQ(error_of("{} {}",
                     [](Cursor& c) {
                       c.skip_value();
                       c.end();
                     }),
            "doc: trailing content at offset 3");
  EXPECT_THROW(Cursor("1e999", "doc").number(), std::invalid_argument);
  EXPECT_THROW(Cursor("+1", "doc").number(), std::invalid_argument);
}

TEST(JsonCursor, IntegersAreCheckedAgainstTheirType) {
  EXPECT_EQ(Cursor("42", "doc").integer<int>(), 42);
  EXPECT_EQ(Cursor("-7", "doc").integer<int>(), -7);
  EXPECT_EQ(Cursor("1e+17", "doc").integer<std::int64_t>(),
            100000000000000000);
  EXPECT_EQ(Cursor("18446744073709551615", "doc").integer<std::uint64_t>(),
            std::numeric_limits<std::uint64_t>::max());
  for (const std::string doc :
       {"2.9", "-1", "1e300", "18446744073709551616", "nan", "inf", "-inf",
        "x"}) {
    EXPECT_THROW(Cursor(doc, "doc").integer<std::uint64_t>(),
                 std::invalid_argument)
        << doc;
  }
  EXPECT_THROW(Cursor("2147483648", "doc").integer<int>(),
               std::invalid_argument);
  EXPECT_THROW(Cursor("-2147483649", "doc").integer<int>(),
               std::invalid_argument);
  EXPECT_EQ(Cursor("-2147483648", "doc").integer<int>(),
            std::numeric_limits<int>::min());
}

TEST(JsonCursor, WhitespaceIncludesCrLf) {
  Cursor cur(" \t\r\n{\r\n\"a\" :\t1 }\r\n", "doc");
  double a = 0.0;
  cur.object([&](std::string_view key) {
    EXPECT_EQ(key, "a");
    a = cur.number();
  });
  cur.end();
  EXPECT_EQ(a, 1.0);
}

TEST(JsonCursor, SkipValueSkipsAnyValueAndBoundsNesting) {
  Cursor cur(R"({"a": [1, "x\"y", {"b": null}], "c": true, "d": false})",
             "doc");
  cur.skip_value();
  cur.end();
  const std::string deep = std::string(100, '[') + std::string(100, ']');
  EXPECT_THROW(Cursor(deep, "doc").skip_value(), std::invalid_argument);
  EXPECT_THROW(Cursor("[1, 2", "doc").skip_value(), std::invalid_argument);
  EXPECT_THROW(Cursor("{\"a\" 1}", "doc").skip_value(),
               std::invalid_argument);
}

TEST(JsonCursor, ErrorsNameTheDocumentLineAndOffset) {
  try {
    Cursor cur("{x", "trace line", 7);
    cur.object([](std::string_view) {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "trace line 7: expected '\"' at offset 1");
  }
  EXPECT_EQ(error_of("", [](Cursor& c) { c.expect('{'); }),
            "doc: expected '{' at offset 0");
}

}  // namespace
}  // namespace numaio::obs::json
