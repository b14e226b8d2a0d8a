// Minimal JSON codec for the performad wire protocol.
//
// The protocol is newline-delimited JSON with *flat* objects: every
// request and response is one line holding one object whose values are
// null, booleans, numbers or strings (responses may additionally carry
// arrays of numbers). That restriction buys a codec small enough to
// audit, with no dependency and no recursion on attacker-controlled
// input -- a malformed or adversarial line costs O(length) and produces
// a typed parse error, never UB or unbounded work.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace performa::daemon {

/// One JSON scalar.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
};

/// A parsed flat JSON object: ordered key/value pairs with typed,
/// defaulted accessors (the protocol treats absent and null alike).
class JsonObject {
 public:
  void add(std::string key, JsonValue value) {
    fields_.emplace_back(std::move(key), std::move(value));
  }

  bool has(const std::string& key) const noexcept;
  const JsonValue* find(const std::string& key) const noexcept;

  /// Typed lookups; return `fallback` when the key is absent or null.
  /// A present key of the *wrong* type is a protocol error the caller
  /// should reject -- check with has()/find() -- but these accessors
  /// still behave (fallback) rather than throw.
  double number(const std::string& key, double fallback) const noexcept;
  bool boolean(const std::string& key, bool fallback) const noexcept;
  std::string string(const std::string& key,
                     const std::string& fallback) const;

  const std::vector<std::pair<std::string, JsonValue>>& fields()
      const noexcept {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

/// Parse one flat JSON object. Returns false with a position-bearing
/// message in `error` on malformed input, non-object input, or nested
/// containers (which the protocol does not use).
bool parse_json_object(const std::string& text, JsonObject& out,
                       std::string& error);

/// Incremental writer for one flat JSON object line.
class JsonWriter {
 public:
  JsonWriter() : out_("{") {}

  void field(const std::string& key, const std::string& value);
  void field(const std::string& key, const char* value);
  void field(const std::string& key, double value);
  void field(const std::string& key, std::uint64_t value);
  void field(const std::string& key, bool value);
  void field_array(const std::string& key, const std::vector<double>& values);

  /// Finish and return `{...}` (no trailing newline).
  std::string str() &&;

 private:
  void key(const std::string& k);
  std::string out_;
  bool first_ = true;
};

/// Render a double as JSON: shortest round-trip decimal; NaN/Inf (not
/// representable in JSON) become null.
std::string json_number(double value);

}  // namespace performa::daemon
