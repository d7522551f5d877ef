#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Quoted, escaped JSON string.
std::string JsonQuote(std::string_view text);
// Shortest round-trip rendering of a double (all its digits); non-finite
// values render as null.
std::string JsonNumber(double value);

// A parsed JSON document. Small and strict enough for BENCHMARK.json and
// the benchmark's own result lines.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  // Member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string fallback) const;
};

// Parses one JSON document; nullopt (with `error` set) on malformed
// input or trailing bytes.
std::optional<JsonValue> ParseJson(std::string_view text,
                                   std::string* error = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
