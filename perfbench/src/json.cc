#include "src/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

std::string JsonQuote(std::string_view text) {
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
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->type == Type::kNumber ? value->number
                                                          : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->type == Type::kString ? value->string
                                                          : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseDocument(JsonValue* out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing bytes");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const char* what) {
    if (error_.empty()) {
      error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
          unsigned code = 0;
          auto result = std::from_chars(text_.data() + pos_,
                                        text_.data() + pos_ + 4, code, 16);
          if (result.ptr != text_.data() + pos_ + 4) {
            return Fail("bad \\u escape");
          }
          pos_ += 4;
          // The benchmark only escapes control characters; anything
          // wider is kept as '?' rather than transcoded.
          *out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') {
      out->type = JsonValue::Type::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail("expected ':'");
        }
        ++pos_;
        JsonValue member;
        if (!ParseValue(&member, depth + 1)) return false;
        if (!out->object.emplace(std::move(key), std::move(member)).second) {
          return Fail("duplicate key");
        }
        SkipSpace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->type = JsonValue::Type::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue element;
        if (!ParseValue(&element, depth + 1)) return false;
        out->array.push_back(std::move(element));
        SkipSpace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string);
    }
    if (c == 't') {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = JsonValue::Type::kBool;
      return Literal("false");
    }
    if (c == 'n') {
      out->type = JsonValue::Type::kNull;
      return Literal("null");
    }
    // Number: strtod on a bounded copy (from_chars<double> rejects a
    // leading '+', which JSON never has anyway).
    size_t end = pos_;
    while (end < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[end]) !=
               std::string_view::npos) {
      ++end;
    }
    if (end == pos_) return Fail("unexpected character");
    const std::string number(text_.substr(pos_, end - pos_));
    char* parsed_end = nullptr;
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(number.c_str(), &parsed_end);
    if (parsed_end != number.c_str() + number.size()) return Fail("bad number");
    pos_ = end;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text, std::string* error) {
  Parser parser(text);
  JsonValue value;
  if (!parser.ParseDocument(&value)) {
    if (error != nullptr) *error = parser.error();
    return std::nullopt;
  }
  return value;
}

}  // namespace perfbench
