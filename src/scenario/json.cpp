#include "scenario/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "common/assert.hpp"

namespace ssps::scenario {

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  SSPS_ASSERT_MSG(kind_ == Kind::kObject, "Json::operator[]: not an object");
  return object_[key];
}

void Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  SSPS_ASSERT_MSG(kind_ == Kind::kArray, "Json::push_back: not an array");
  array_.push_back(std::move(v));
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

void Json::write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void Json::write_double(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; reports must stay loadable
    out += "null";
    return;
  }
  // DBL_MAX under "%.6f" needs ~316 chars; size for the worst case so
  // large metrics are never silently truncated.
  char buf[352];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out += buf;
}

void Json::write(std::string& out, int indent, int depth) const {
  const std::string pad(indent > 0 ? static_cast<std::size_t>(indent * (depth + 1)) : 0, ' ');
  const std::string close_pad(indent > 0 ? static_cast<std::size_t>(indent * depth) : 0, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
      out += buf;
      break;
    }
    case Kind::kUint: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(uint_));
      out += buf;
      break;
    }
    case Kind::kDouble:
      write_double(out, double_);
      break;
    case Kind::kString:
      write_escaped(out, string_);
      break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += "[";
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out += ",";
        first = false;
        out += nl;
        out += pad;
        v.write(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out += "]";
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += "{";
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ",";
        first = false;
        out += nl;
        out += pad;
        write_escaped(out, k);
        out += colon;
        v.write(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out += "}";
      break;
    }
  }
}

namespace {

/// The dump(2) of a non-empty object is "{\n", its members joined by
/// ",\n", then "\n}\n", where each member starts with two spaces and its
/// quoted key. Nested lines are indented further and strings hold no raw
/// newline, so ",\n  \"" separates top-level members and nothing else.
constexpr std::string_view kMemberSeparator = ",\n  \"";

/// The top-level members of such a dump, each without its separating
/// comma.
std::vector<std::string_view> top_level_members(std::string_view dumped) {
  std::string_view body = dumped.substr(2, dumped.size() - 5);
  std::vector<std::string_view> members;
  for (;;) {
    const std::size_t end = body.find(kMemberSeparator);
    members.push_back(body.substr(0, end));
    if (end == std::string_view::npos) return members;
    body.remove_prefix(end + 2);  // keep the next member's indent
  }
}

/// A member's key: the text between its first two quotes.
std::string_view member_key(std::string_view member) {
  member.remove_prefix(3);  // the indent and the opening quote
  return member.substr(0, member.find('"'));
}

}  // namespace

std::optional<std::string> splice_dump(std::string_view dumped, const Json& extra) {
  const auto is_object_dump = [](std::string_view text) {
    return text.size() >= 8 && text.starts_with("{\n  \"") && text.ends_with("\n}\n");
  };
  const std::string extra_dump = extra.dump(2);
  if (!is_object_dump(dumped) || !is_object_dump(extra_dump)) return std::nullopt;
  const std::vector<std::string_view> ours = top_level_members(dumped);
  const std::vector<std::string_view> theirs = top_level_members(extra_dump);
  std::vector<std::string_view> merged;
  merged.reserve(ours.size() + theirs.size());
  std::ranges::merge(ours, theirs, std::back_inserter(merged),
                     [](std::string_view a, std::string_view b) {
                       return member_key(a) < member_key(b);
                     });
  std::string out = "{\n";
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) out += ",\n";
    out += merged[i];
  }
  out += "\n}\n";
  return out;
}

}  // namespace ssps::scenario
