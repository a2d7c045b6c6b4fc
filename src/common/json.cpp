#include "src/common/json.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"

namespace mvd {

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

void Json::push_back(Json value) {
  MVD_ASSERT(kind_ == Kind::kArray);
  array_.push_back(std::move(value));
}

void Json::set(const std::string& key, Json value) {
  MVD_ASSERT(kind_ == Kind::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(key, std::move(value));
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

bool Json::contains(const std::string& key) const {
  if (kind_ != Kind::kObject) return false;
  for (const auto& [k, _] : object_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  MVD_ASSERT(kind_ == Kind::kObject);
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  MVD_ASSERT_MSG(false, "missing JSON key '" << key << "'");
  static const Json kNull;
  return kNull;
}

const Json& Json::at(std::size_t index) const {
  MVD_ASSERT(kind_ == Kind::kArray);
  MVD_ASSERT(index < array_.size());
  return array_[index];
}

double Json::as_number() const {
  MVD_ASSERT(kind_ == Kind::kNumber);
  return number_;
}

const std::string& Json::as_string() const {
  MVD_ASSERT(kind_ == Kind::kString);
  return string_;
}

bool Json::as_bool() const {
  MVD_ASSERT(kind_ == Kind::kBool);
  return bool_;
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

std::string number_text(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::ostringstream os;
    os << static_cast<long long>(v);
    return os.str();
  }
  // Shortest representation that parses back to exactly `v`, so
  // dump/parse round-trips are lossless (precision-limited iostream
  // formatting is not).
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  MVD_ASSERT(ec == std::errc());
  return std::string(buf, end);
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  // A newline plus `levels` indents, or nothing when not indenting.
  const auto newline_pad = [indent](int levels) {
    std::string pad;
    if (indent > 0) {
      pad += '\n';
      pad.append(static_cast<std::size_t>(indent) *
                     static_cast<std::size_t>(levels),
                 ' ');
    }
    return pad;
  };
  const std::string pad = newline_pad(depth + 1);
  const std::string close_pad = newline_pad(depth);
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += number_text(number_); break;
    case Kind::kString: out += json_quote(string_); break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        out += pad;
        array_[i].write(out, indent, depth + 1);
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        out += pad;
        out += json_quote(object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.write(out, indent, depth + 1);
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser over the document subset Json emits.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(str_cat("JSON: ", what, " at offset ", pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(str_cat("expected '", std::string(1, c), "'"));
    ++pos_;
  }

  bool accept_literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json::string(parse_string());
    if (accept_literal("null")) return Json::null();
    if (accept_literal("true")) return Json::boolean(true);
    if (accept_literal("false")) return Json::boolean(false);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("expected a JSON value");
  }

  Json parse_object() {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  Json parse_array() {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a') + 10;
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A') + 10;
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode (the writer only emits codes < 0x20, but accept
          // the full BMP for robustness).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape sequence");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double value = 0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last) {
      pos_ = start;
      fail("malformed number");
    }
    return Json::number(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace mvd
