// Minimal deterministic JSON document builder.
//
// The scenario engine's contract is that one (spec, seed) pair produces a
// bit-identical metrics report, so this writer is deliberately boring:
// objects keep their keys sorted (std::map), integers are emitted exactly,
// and doubles are formatted with a fixed "%.6f"-style conversion. No
// parsing, no external dependency — reports are write-only artifacts
// consumed by scripts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ssps::scenario {

/// A JSON value: null, bool, integer, double, string, array or object.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}                    // NOLINT
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}              // NOLINT
  Json(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}           // NOLINT
  Json(int v) : kind_(Kind::kInt), int_(v) {}                       // NOLINT
  Json(unsigned v) : kind_(Kind::kUint), uint_(v) {}                // NOLINT
  Json(double v) : kind_(Kind::kDouble), double_(v) {}              // NOLINT
  Json(const char* s) : kind_(Kind::kString), string_(s) {}         // NOLINT
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }

  /// Object member access; creates the member (and converts a null value
  /// into an object) on first use.
  Json& operator[](const std::string& key);

  /// Appends to an array (converts a null value into an array).
  void push_back(Json v);

  /// Serializes the document. `indent` = 0 gives compact one-line output;
  /// otherwise members are pretty-printed with `indent` spaces per level.
  std::string dump(int indent = 2) const;

 private:
  void write(std::string& out, int indent, int depth) const;
  static void write_escaped(std::string& out, const std::string& s);
  static void write_double(std::string& out, double v);

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

/// What dump(2) of the union of two objects writes, given `dumped`, the
/// dump(2) of one object, and `extra`, the other: `extra`'s members
/// spliced in among `dumped`'s where the sorted keys put them. The two
/// objects' keys must be distinct, non-empty and free of characters that
/// need escaping. nullopt when `dumped` is not the dump(2) of a non-empty
/// object.
std::optional<std::string> splice_dump(std::string_view dumped, const Json& extra);

}  // namespace ssps::scenario
