#include "service/json_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace saphyra {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Status Parse(JsonValue* out) {
    SkipWs();
    SAPHYRA_RETURN_NOT_OK(ParseValue(out, 0));
    SkipWs();
    if (pos_ != s_.size()) {
      return Error("trailing characters after JSON document");
    }
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + msg);
  }

  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= s_.size()) return Error("unexpected end of input");
    const char c = s_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string_value);
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        if (s_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          out->type = JsonValue::Type::kNull;
          return Status::OK();
        }
        return Error("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(JsonValue* out) {
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->type = JsonValue::Type::kBool;
      out->bool_value = true;
      return Status::OK();
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->type = JsonValue::Type::kBool;
      out->bool_value = false;
      return Status::OK();
    }
    return Error("invalid literal");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("invalid value");
    const std::string token = s_.substr(start, pos_ - start);
    // Enforce the RFC 8259 number grammar before handing the token to
    // strtod, which is laxer (leading '+', leading zeros, '.5', '5.').
    // Lax acceptance here would make this server disagree with standard
    // JSON parsers about which request lines are well-formed.
    size_t i = 0;
    auto bad = [&] { return Error("invalid number '" + token + "'"); };
    if (i < token.size() && token[i] == '-') ++i;
    if (i >= token.size() ||
        !std::isdigit(static_cast<unsigned char>(token[i]))) {
      return bad();
    }
    if (token[i] == '0') {
      ++i;  // a leading zero must stand alone
    } else {
      while (i < token.size() &&
             std::isdigit(static_cast<unsigned char>(token[i]))) {
        ++i;
      }
    }
    if (i < token.size() && token[i] == '.') {
      ++i;
      if (i >= token.size() ||
          !std::isdigit(static_cast<unsigned char>(token[i]))) {
        return bad();  // at least one fraction digit
      }
      while (i < token.size() &&
             std::isdigit(static_cast<unsigned char>(token[i]))) {
        ++i;
      }
    }
    if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
      ++i;
      if (i < token.size() && (token[i] == '+' || token[i] == '-')) ++i;
      if (i >= token.size() ||
          !std::isdigit(static_cast<unsigned char>(token[i]))) {
        return bad();  // at least one exponent digit
      }
      while (i < token.size() &&
             std::isdigit(static_cast<unsigned char>(token[i]))) {
        ++i;
      }
    }
    if (i != token.size()) return bad();

    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      return bad();
    }
    out->type = JsonValue::Type::kNumber;
    out->number_value = v;
    out->is_uint = token.find_first_of(".eE-") == std::string::npos;
    if (out->is_uint) {
      errno = 0;
      out->uint_value = std::strtoull(token.c_str(), &end, 10);
      if (errno != 0) return Error("integer out of range '" + token + "'");
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    SAPHYRA_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point; surrogate pairs are rejected
          // (request ids have no business containing astral characters).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escapes unsupported");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(JsonValue* out, int depth) {
    SAPHYRA_RETURN_NOT_OK(Expect('['));
    out->type = JsonValue::Type::kArray;
    SkipWs();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue elem;
      SkipWs();
      SAPHYRA_RETURN_NOT_OK(ParseValue(&elem, depth + 1));
      out->array.push_back(std::move(elem));
      SkipWs();
      if (Consume(']')) return Status::OK();
      SAPHYRA_RETURN_NOT_OK(Expect(','));
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    SAPHYRA_RETURN_NOT_OK(Expect('{'));
    out->type = JsonValue::Type::kObject;
    SkipWs();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWs();
      std::string key;
      SAPHYRA_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      SAPHYRA_RETURN_NOT_OK(Expect(':'));
      SkipWs();
      JsonValue value;
      SAPHYRA_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->object[std::move(key)] = std::move(value);
      SkipWs();
      if (Consume('}')) return Status::OK();
      SAPHYRA_RETURN_NOT_OK(Expect(','));
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

Status ParseJson(const std::string& text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).Parse(out);
}

std::string JsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  // to_chars with chars_format::general and a precision prints what
  // printf's %.*g prints, in one pass and without locale lookups.
  char buf[32];
  char* end = buf;
  for (int prec = 15; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == v) break;
  }
  return std::string(buf, end);
}

}  // namespace saphyra
