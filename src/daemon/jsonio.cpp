#include "daemon/jsonio.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/trace.h"

namespace performa::daemon {

namespace {

struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  bool eof() const noexcept { return pos >= text.size(); }
  char peek() const noexcept { return eof() ? '\0' : text[pos]; }
  char take() noexcept { return eof() ? '\0' : text[pos++]; }

  void skip_ws() noexcept {
    while (!eof()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }
};

bool fail(Cursor& c, std::string& error, const std::string& why) {
  error = "json: " + why + " at position " + std::to_string(c.pos);
  return false;
}

bool parse_literal(Cursor& c, const char* word, std::string& error) {
  const std::size_t len = std::strlen(word);
  if (c.text.compare(c.pos, len, word) != 0) {
    return fail(c, error, std::string("expected '") + word + "'");
  }
  c.pos += len;
  return true;
}

// Parses a JSON string (cursor on the opening quote). Handles the
// escapes the protocol emits; \uXXXX is decoded for the BMP only
// (surrogate pairs are rejected -- the protocol never produces them).
bool parse_string(Cursor& c, std::string& out, std::string& error) {
  if (c.take() != '"') return fail(c, error, "expected '\"'");
  out.clear();
  while (true) {
    if (c.eof()) return fail(c, error, "unterminated string");
    char ch = c.take();
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20) {
      return fail(c, error, "raw control character in string");
    }
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.eof()) return fail(c, error, "unterminated escape");
    const char esc = c.take();
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
        if (c.pos + 4 > c.text.size()) {
          return fail(c, error, "truncated \\u escape");
        }
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = c.take();
          cp <<= 4;
          if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
          else return fail(c, error, "bad hex digit in \\u escape");
        }
        if (cp >= 0xD800 && cp <= 0xDFFF) {
          return fail(c, error, "surrogate \\u escape unsupported");
        }
        // UTF-8 encode the BMP code point.
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xC0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        break;
      }
      default:
        return fail(c, error, "unknown escape");
    }
  }
}

bool parse_number(Cursor& c, double& out, std::string& error) {
  const std::size_t start = c.pos;
  if (c.peek() == '-') c.take();
  while (!c.eof()) {
    const char ch = c.peek();
    if ((ch >= '0' && ch <= '9') || ch == '.' || ch == 'e' || ch == 'E' ||
        ch == '+' || ch == '-') {
      c.take();
    } else {
      break;
    }
  }
  const std::string token = c.text.substr(start, c.pos - start);
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size()) {
    c.pos = start;
    return fail(c, error, "malformed number");
  }
  return true;
}

bool parse_value(Cursor& c, JsonValue& out, std::string& error) {
  c.skip_ws();
  const char ch = c.peek();
  if (ch == '"') {
    out.kind = JsonValue::Kind::kString;
    return parse_string(c, out.string, error);
  }
  if (ch == 't') {
    out.kind = JsonValue::Kind::kBool;
    out.boolean = true;
    return parse_literal(c, "true", error);
  }
  if (ch == 'f') {
    out.kind = JsonValue::Kind::kBool;
    out.boolean = false;
    return parse_literal(c, "false", error);
  }
  if (ch == 'n') {
    out.kind = JsonValue::Kind::kNull;
    return parse_literal(c, "null", error);
  }
  if (ch == '{' || ch == '[') {
    return fail(c, error, "nested containers not allowed (flat protocol)");
  }
  out.kind = JsonValue::Kind::kNumber;
  return parse_number(c, out.number, error);
}

}  // namespace

bool JsonObject::has(const std::string& key) const noexcept {
  return find(key) != nullptr;
}

const JsonValue* JsonObject::find(const std::string& key) const noexcept {
  // Later duplicates win, matching the appends-win convention used by
  // the journal: scan from the back.
  for (auto it = fields_.rbegin(); it != fields_.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

double JsonObject::number(const std::string& key,
                          double fallback) const noexcept {
  const JsonValue* v = find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return fallback;
  return v->number;
}

bool JsonObject::boolean(const std::string& key, bool fallback) const noexcept {
  const JsonValue* v = find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) return fallback;
  return v->boolean;
}

std::string JsonObject::string(const std::string& key,
                               const std::string& fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) return fallback;
  return v->string;
}

bool parse_json_object(const std::string& text, JsonObject& out,
                       std::string& error) {
  out = JsonObject{};
  Cursor c{text};
  c.skip_ws();
  if (c.take() != '{') return fail(c, error, "expected '{'");
  c.skip_ws();
  if (c.peek() == '}') {
    c.take();
    c.skip_ws();
    if (!c.eof()) return fail(c, error, "trailing bytes after object");
    return true;
  }
  while (true) {
    c.skip_ws();
    std::string key;
    if (!parse_string(c, key, error)) return false;
    c.skip_ws();
    if (c.take() != ':') return fail(c, error, "expected ':'");
    JsonValue value;
    if (!parse_value(c, value, error)) return false;
    out.add(std::move(key), std::move(value));
    c.skip_ws();
    const char sep = c.take();
    if (sep == ',') continue;
    if (sep == '}') break;
    return fail(c, error, "expected ',' or '}'");
  }
  c.skip_ws();
  if (!c.eof()) return fail(c, error, "trailing bytes after object");
  return true;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof probe, "%.*g", prec, value);
    if (std::strtod(probe, nullptr) == value) return probe;
  }
  return buf;
}

void JsonWriter::key(const std::string& k) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += '"';
  obs::append_json_escaped(out_, k);
  out_ += "\":";
}

void JsonWriter::field(const std::string& k, const std::string& value) {
  key(k);
  out_ += '"';
  obs::append_json_escaped(out_, value);
  out_ += '"';
}

void JsonWriter::field(const std::string& k, const char* value) {
  field(k, std::string(value));
}

void JsonWriter::field(const std::string& k, double value) {
  key(k);
  out_ += json_number(value);
}

void JsonWriter::field(const std::string& k, std::uint64_t value) {
  key(k);
  out_ += std::to_string(value);
}

void JsonWriter::field(const std::string& k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
}

void JsonWriter::field_array(const std::string& k,
                             const std::vector<double>& values) {
  key(k);
  out_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_ += ',';
    out_ += json_number(values[i]);
  }
  out_ += ']';
}

std::string JsonWriter::str() && {
  out_ += '}';
  return std::move(out_);
}

}  // namespace performa::daemon
