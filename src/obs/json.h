// The toolkit's one JSON codec. Every JSON document it writes — JSONL
// traces, metrics snapshots, Chrome exports, run reports,
// BENCH_numaio.json — goes out through write_string and write_number,
// and every one it reads comes back through Cursor. The dialect (RFC 8259
// strings, `%.17g` numbers, checked integers, CRLF as whitespace; no hex,
// no trailing content) is specified in docs/FORMATS.md §4d.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace numaio::obs::json {

/// Writes `text` as a JSON string literal, quotes included: `"` and `\`
/// are backslash-escaped, \n and \t by name, every other byte below 0x20
/// as \u00XX; all other bytes pass through unchanged.
void write_string(std::ostream& out, std::string_view text);

/// Writes `v` as `%.17g`: 17 significant digits, enough for any double
/// to read back exactly, with trailing zeros dropped (integral values
/// print without a fraction).
void write_number(std::ostream& out, double v);

/// A pull reader over one JSON document. Every read skips leading
/// whitespace; every failure throws std::invalid_argument reading
/// "<doc>[ <line>]: <what> at offset <n>". The text must outlive the
/// cursor.
class Cursor {
 public:
  /// `doc` names the document in errors ("metrics JSON"); a positive
  /// `line` is appended to it ("trace line 12").
  Cursor(std::string_view text, const char* doc, int line = 0)
      : text_(text), doc_(doc), line_(line) {}

  [[noreturn]] void fail(std::string_view what) const;

  /// Consumes `c` if it is the next character.
  bool accept(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c);

  /// Reads a string. The view points into the text when the string holds
  /// no escape, else into the cursor's own buffer; either way it is valid
  /// until the next string() call.
  std::string_view string();
  /// Reads a number (`inf` and `nan` included, as `%.17g` writes them).
  double number();
  /// Reads a number that must be integral and fit in T.
  template <typename T>
  T integer();
  /// Skips one value of any type.
  void skip_value() { skip_value(0); }
  /// Requires that only whitespace remains.
  void end();

  /// Reads an object, calling `field(key)` with the cursor on each value;
  /// `field` must consume that value.
  template <typename Field>
  void object(Field&& field) {
    expect('{');
    if (accept('}')) return;
    do {
      const std::string_view key = string();
      expect(':');
      field(key);
    } while (accept(','));
    expect('}');
  }

  /// Reads an array, calling `item()` with the cursor on each element.
  template <typename Item>
  void array(Item&& item) {
    expect('[');
    if (accept(']')) return;
    do {
      item();
    } while (accept(','));
    expect(']');
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  void skip_value(int depth);
  unsigned hex4();

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* doc_;
  int line_;
  std::string scratch_;
};

template <typename T>
T Cursor::integer() {
  static_assert(std::is_integral_v<T>);
  skip_ws();
  const char* first = text_.data() + pos_;
  const char* last = text_.data() + text_.size();
  T value{};
  const auto [next, ec] = std::from_chars(first, last, value);
  if (ec == std::errc{} &&
      (next == last || (*next != '.' && *next != 'e' && *next != 'E'))) {
    pos_ += static_cast<std::size_t>(next - first);
    return value;
  }
  // Fraction or exponent form (`%.17g` writes 1e+17 from 10^17 up), or
  // out of range: exact only when integral and within T.
  const double d = number();
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lo = std::is_signed_v<T> ? -hi : 0.0;
  if (d != std::trunc(d) || d < lo || d >= hi) {
    fail("expected an integer in range");
  }
  return static_cast<T>(d);
}

}  // namespace numaio::obs::json
