#include "obs/json.h"

#include <cstdio>
#include <stdexcept>

namespace numaio::obs::json {

void write_string(std::ostream& out, std::string_view text) {
  out.put('"');
  // Unescaped runs go out in one write each.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.write(text.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out << buf;
      }
    }
  }
  out.write(text.data() + run,
            static_cast<std::streamsize>(text.size() - run));
  out.put('"');
}

void write_number(std::ostream& out, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  out.write(buf, n);
}

void Cursor::fail(std::string_view what) const {
  std::string message(doc_);
  if (line_ > 0) message += " " + std::to_string(line_);
  message += ": ";
  message += what;
  message += " at offset " + std::to_string(pos_);
  throw std::invalid_argument(message);
}

void Cursor::expect(char c) {
  if (!accept(c)) fail(std::string("expected '") + c + "'");
}

unsigned Cursor::hex4() {
  unsigned value = 0;
  const char* first = text_.data() + pos_;
  if (text_.size() - pos_ < 4 ||
      std::from_chars(first, first + 4, value, 16).ptr != first + 4) {
    fail("bad \\u escape");
  }
  pos_ += 4;
  return value;
}

std::string_view Cursor::string() {
  expect('"');
  const std::size_t start = pos_;
  bool escaped = false;  // once set, the string is built in scratch_
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') {
      return escaped ? std::string_view(scratch_)
                     : text_.substr(start, pos_ - 1 - start);
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("control character in string");
    }
    if (c != '\\') {
      if (escaped) scratch_ += c;
      continue;
    }
    if (!escaped) {
      scratch_.assign(text_.substr(start, pos_ - 1 - start));
      escaped = true;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    switch (text_[pos_++]) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': {
        unsigned code = hex4();
        if (code >= 0xdc00 && code < 0xe000) fail("unpaired surrogate");
        if (code >= 0xd800 && code < 0xdc00) {
          if (text_.substr(pos_, 2) != "\\u") fail("unpaired surrogate");
          pos_ += 2;
          const unsigned low = hex4();
          if (low < 0xdc00 || low >= 0xe000) fail("unpaired surrogate");
          code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        // UTF-8: one byte below 0x80, else a lead byte and 1-3
        // continuation bytes.
        if (code < 0x80) {
          scratch_ += static_cast<char>(code);
          break;
        }
        const int tail = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
        const unsigned lead = tail == 1 ? 0xc0u : tail == 2 ? 0xe0u : 0xf0u;
        scratch_ += static_cast<char>(lead | (code >> (6 * tail)));
        for (int i = tail - 1; i >= 0; --i) {
          scratch_ += static_cast<char>(0x80u | ((code >> (6 * i)) & 0x3fu));
        }
        break;
      }
      default:
        fail("unknown escape");
    }
  }
}

double Cursor::number() {
  skip_ws();
  const char* first = text_.data() + pos_;
  double value = 0.0;
  const auto [next, ec] =
      std::from_chars(first, text_.data() + text_.size(), value);
  if (ec == std::errc::invalid_argument) fail("expected a number");
  if (ec == std::errc::result_out_of_range) fail("number out of range");
  pos_ += static_cast<std::size_t>(next - first);
  return value;
}

void Cursor::skip_value(int depth) {
  // Bounds the recursion on hostile input; the toolkit's own documents
  // nest four deep at most.
  if (depth > 64) fail("nesting too deep");
  skip_ws();
  if (pos_ < text_.size()) {
    switch (text_[pos_]) {
      case '"': string(); return;
      case '{':
        object([&](std::string_view) { skip_value(depth + 1); });
        return;
      case '[':
        array([&] { skip_value(depth + 1); });
        return;
      default: break;
    }
  }
  for (const std::string_view word : {"true", "false", "null"}) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return;
    }
  }
  number();
}

void Cursor::end() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content");
}

}  // namespace numaio::obs::json
