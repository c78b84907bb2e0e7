#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "eval/sweep_json.h"
#include "grouprec/semantics.h"

namespace groupform::serve {
namespace {

using common::Status;
using common::StatusOr;

// ---------------------------------------------------------------------------
// Minimal JSON document model + recursive-descent parser. The serving layer
// is the library's only JSON *reader* (the eval layer only writes), so the
// parser lives here rather than in common/. It accepts exactly RFC 8259
// JSON, with a nesting-depth cap because the input is network-facing.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Key order preserved; lookups take the first match.
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

const char* JsonTypeName(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kNumber:
      return "number";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kArray:
      return "array";
    case JsonValue::Type::kObject:
      return "object";
  }
  return "?";
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue value;
    GF_RETURN_IF_ERROR(ParseValue(value, /*depth=*/0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        common::StrFormat("JSON parse error at offset %zu: %s", pos_,
                          message.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out.type = JsonValue::Type::kString;
        return ParseString(out.string);
      case 't':
      case 'f':
        return ParseLiteral(c == 't' ? "true" : "false", [&] {
          out.type = JsonValue::Type::kBool;
          out.boolean = (c == 't');
        });
      case 'n':
        return ParseLiteral("null",
                            [&] { out.type = JsonValue::Type::kNull; });
      default:
        return ParseNumber(out);
    }
  }

  template <typename Commit>
  Status ParseLiteral(const char* literal, Commit commit) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (!Consume(*p)) return Error("invalid literal");
    }
    commit();
    return Status::Ok();
  }

  Status ParseNumber(JsonValue& out) {
    // Validate the RFC 8259 grammar by hand, then convert with strtod
    // (which accepts a superset — hex, "inf", leading zeros — that must
    // stay rejected).
    const std::size_t start = pos_;
    Consume('-');
    if (Consume('0')) {
      // "0" may only be followed by '.', 'e', or the end of the number.
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        return Error("invalid number (leading zero)");
      }
    } else if (!ConsumeDigits()) {
      return Error("invalid number");
    }
    if (Consume('.') && !ConsumeDigits()) return Error("invalid number");
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!ConsumeDigits()) return Error("invalid number");
    }
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(text_.c_str() + start, nullptr);
    return Status::Ok();
  }

  bool ConsumeDigits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  Status ParseString(std::string& out) {
    if (!Consume('"')) return Error("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out.push_back(escape);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          GF_RETURN_IF_ERROR(ParseUnicodeEscape(out));
          break;
        }
        default:
          return Error("invalid escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Status ParseUnicodeEscape(std::string& out) {
    unsigned code = 0;
    GF_RETURN_IF_ERROR(ParseHex4(code));
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: require the paired low surrogate.
      if (!(Consume('\\') && Consume('u'))) {
        return Error("unpaired surrogate");
      }
      unsigned low = 0;
      GF_RETURN_IF_ERROR(ParseHex4(low));
      if (low < 0xDC00 || low > 0xDFFF) return Error("unpaired surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      return Error("unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return Status::Ok();
  }

  Status ParseHex4(unsigned& out) {
    out = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return Error("truncated \\u escape");
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    return Status::Ok();
  }

  Status ParseObject(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    Consume('{');
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipWhitespace();
      std::string key;
      GF_RETURN_IF_ERROR(ParseString(key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' in object");
      JsonValue value;
      GF_RETURN_IF_ERROR(ParseValue(value, depth + 1));
      out.object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    Consume('[');
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      JsonValue value;
      GF_RETURN_IF_ERROR(ParseValue(value, depth + 1));
      out.array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Typed field extraction with protocol-grade error messages.

Status WrongType(const char* key, const JsonValue& value,
                 const char* expected) {
  return Status::InvalidArgument(
      common::StrFormat("field \"%s\": expected %s, got %s", key, expected,
                        JsonTypeName(value.type)));
}

StatusOr<std::string> FieldString(const JsonValue& object, const char* key,
                                  std::optional<std::string> fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    if (fallback.has_value()) return *std::move(fallback);
    return Status::InvalidArgument(
        common::StrFormat("missing required field \"%s\"", key));
  }
  if (value->type != JsonValue::Type::kString) {
    return WrongType(key, *value, "string");
  }
  return value->string;
}

/// Upper bound for count-like fields that narrow to int32 downstream —
/// values past it would wrap in the cast and trip the data layer's
/// GF_CHECK aborts, which a serving process must never reach.
constexpr long long kMaxInt32Field = 2147483647ll;
/// Upper bound for deadline_ms: anything larger would overflow the
/// steady_clock nanosecond representation when added to now() (and ~31
/// years is an unlimited deadline for any practical purpose).
constexpr long long kMaxDeadlineMs = 1000ll * 1000 * 1000 * 1000;
/// Default bound: the largest magnitude the integrality check admits.
constexpr long long kMaxIntField = 9200000000000000000ll;

StatusOr<long long> FieldInt(const JsonValue& object, const char* key,
                             long long fallback, long long min_value,
                             long long max_value = kMaxIntField) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return fallback;
  if (value->type != JsonValue::Type::kNumber) {
    return WrongType(key, *value, "integer");
  }
  const double number = value->number;
  if (!(number == std::floor(number)) || number < -9.2e18 ||
      number > 9.2e18) {
    return Status::InvalidArgument(
        common::StrFormat("field \"%s\": not an integer", key));
  }
  const long long parsed = static_cast<long long>(number);
  if (parsed < min_value || parsed > max_value) {
    return Status::InvalidArgument(common::StrFormat(
        "field \"%s\": %lld is outside [%lld, %lld]", key, parsed,
        min_value, max_value));
  }
  return parsed;
}

/// An id-like JSON number (user/item/member): integral and within
/// [0, INT32_MAX]. A raw static_cast from an unchecked double would be
/// undefined behavior for out-of-range values.
StatusOr<std::int32_t> IdFromNumber(const JsonValue& value,
                                    const char* what) {
  if (value.type != JsonValue::Type::kNumber ||
      value.number != std::floor(value.number) || value.number < 0 ||
      value.number > static_cast<double>(kMaxInt32Field)) {
    return Status::InvalidArgument(common::StrFormat(
        "%s: expected an integer id in [0, %lld]", what, kMaxInt32Field));
  }
  return static_cast<std::int32_t>(value.number);
}

StatusOr<bool> FieldBool(const JsonValue& object, const char* key,
                         bool fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return fallback;
  if (value->type != JsonValue::Type::kBool) {
    return WrongType(key, *value, "bool");
  }
  return value->boolean;
}

StatusOr<double> FieldDouble(const JsonValue& object, const char* key,
                             double fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return fallback;
  if (value->type != JsonValue::Type::kNumber) {
    return WrongType(key, *value, "number");
  }
  return value->number;
}

Status CheckOneOf(const char* key, const std::string& value,
                  const std::vector<std::string>& domain) {
  for (const auto& candidate : domain) {
    if (value == candidate) return Status::Ok();
  }
  return Status::InvalidArgument(common::StrFormat(
      "field \"%s\": \"%s\" is not one of {%s}", key, value.c_str(),
      common::Join(domain, ", ").c_str()));
}

/// Renders a JSON number as a SolverOptions string value: integral numbers
/// drop the fraction ("10", not "10.0") so integer knobs parse, and
/// fractions use the shortest round-trip form (std::to_chars, like
/// JsonWriter::Number — "0.95", not "0.94999999999999996").
std::string OptionValueToString(const JsonValue& value) {
  switch (value.type) {
    case JsonValue::Type::kString:
      return value.string;
    case JsonValue::Type::kBool:
      return value.boolean ? "1" : "0";
    case JsonValue::Type::kNumber: {
      if (value.number == std::floor(value.number) &&
          std::abs(value.number) <= 9.2e18) {
        return common::StrFormat("%lld",
                                 static_cast<long long>(value.number));
      }
      char buffer[32];
      const auto [end, ec] =
          std::to_chars(buffer, buffer + sizeof buffer, value.number);
      if (ec != std::errc()) return "";
      return std::string(buffer, end);
    }
    default:
      return "";
  }
}

StatusOr<InstanceSpec> ParseInstance(const JsonValue& value) {
  if (value.type != JsonValue::Type::kObject) {
    return WrongType("instance", value, "object");
  }
  InstanceSpec spec;
  GF_ASSIGN_OR_RETURN(spec.kind,
                      FieldString(value, "kind", std::nullopt));
  GF_RETURN_IF_ERROR(CheckOneOf(
      "instance.kind", spec.kind,
      {"inline", "synthetic", "dense", "csv", "movielens", "gfcm"}));
  // The storage backend (DESIGN.md §14.4). mmap needs a pre-packed file,
  // so it is gated on kind "gfcm" (where it is also the default); qbits
  // only varies the compact quantizer on built instances — a GFCM file
  // carries its own width — and is normalised to 8 everywhere else so
  // parse ∘ render stays the identity.
  spec.backend = spec.kind == "gfcm" ? "mmap" : "dense";
  GF_ASSIGN_OR_RETURN(spec.backend,
                      FieldString(value, "backend", spec.backend));
  GF_RETURN_IF_ERROR(CheckOneOf("instance.backend", spec.backend,
                                {"dense", "compact", "mmap"}));
  if (spec.backend == "mmap" && spec.kind != "gfcm") {
    return Status::InvalidArgument(
        "field \"instance.backend\": \"mmap\" requires kind \"gfcm\" (a "
        "pre-packed compact file)");
  }
  if (spec.backend == "compact" && spec.kind != "gfcm") {
    GF_ASSIGN_OR_RETURN(const long long qbits,
                        FieldInt(value, "qbits", /*fallback=*/8,
                                 /*min_value=*/8, /*max_value=*/16));
    if (qbits != 8 && qbits != 16) {
      return Status::InvalidArgument(
          "field \"instance.qbits\": must be 8 or 16");
    }
    spec.qbits = static_cast<int>(qbits);
  }
  if (spec.kind == "csv" || spec.kind == "movielens" ||
      spec.kind == "gfcm") {
    GF_ASSIGN_OR_RETURN(spec.path, FieldString(value, "path", std::nullopt));
    if (spec.path.empty()) {
      return Status::InvalidArgument("field \"instance.path\": empty");
    }
    return spec;
  }
  // FieldInt only range-checks *present* fields; an absent users/items
  // would fall through as 0 and abort the generators' GF_CHECKs deep in
  // the data layer, so reject it here (the fields are required >= 1).
  GF_ASSIGN_OR_RETURN(const long long users,
                      FieldInt(value, "users", /*fallback=*/0,
                               /*min_value=*/1, kMaxInt32Field));
  GF_ASSIGN_OR_RETURN(const long long items,
                      FieldInt(value, "items", /*fallback=*/0,
                               /*min_value=*/1, kMaxInt32Field));
  if (users < 1 || items < 1) {
    return Status::InvalidArgument(
        "fields \"instance.users\" and \"instance.items\" are required "
        "and must be >= 1");
  }
  spec.users = static_cast<std::int32_t>(users);
  spec.items = static_cast<std::int32_t>(items);
  if (spec.kind == "synthetic" || spec.kind == "dense") {
    GF_ASSIGN_OR_RETURN(const long long seed,
                        FieldInt(value, "seed", /*fallback=*/42,
                                 /*min_value=*/0));
    spec.seed = static_cast<std::uint64_t>(seed);
  }
  if (spec.kind == "synthetic") {
    GF_ASSIGN_OR_RETURN(spec.preset,
                        FieldString(value, "preset", std::string("yahoo")));
    GF_RETURN_IF_ERROR(CheckOneOf("instance.preset", spec.preset,
                                  {"yahoo", "movielens"}));
    return spec;
  }
  if (spec.kind == "dense") {
    GF_ASSIGN_OR_RETURN(const long long clusters,
                        FieldInt(value, "clusters", /*fallback=*/4,
                                 /*min_value=*/1, kMaxInt32Field));
    spec.clusters = static_cast<int>(clusters);
    return spec;
  }
  // inline
  const JsonValue* scale = value.Find("scale");
  if (scale != nullptr) {
    if (scale->type != JsonValue::Type::kArray ||
        scale->array.size() != 2 ||
        scale->array[0].type != JsonValue::Type::kNumber ||
        scale->array[1].type != JsonValue::Type::kNumber) {
      return Status::InvalidArgument(
          "field \"instance.scale\": expected [min, max]");
    }
    spec.scale_min = scale->array[0].number;
    spec.scale_max = scale->array[1].number;
    if (!(spec.scale_min < spec.scale_max)) {
      return Status::InvalidArgument(
          "field \"instance.scale\": min must be < max");
    }
  }
  const JsonValue* ratings = value.Find("ratings");
  if (ratings == nullptr || ratings->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument(
        "field \"instance.ratings\": required array of [user, item, "
        "rating] triplets");
  }
  spec.ratings.reserve(ratings->array.size());
  for (const JsonValue& entry : ratings->array) {
    if (entry.type != JsonValue::Type::kArray ||
        entry.array.size() != 3 ||
        entry.array[0].type != JsonValue::Type::kNumber ||
        entry.array[1].type != JsonValue::Type::kNumber ||
        entry.array[2].type != JsonValue::Type::kNumber) {
      return Status::InvalidArgument(
          "field \"instance.ratings\": each entry must be [user, item, "
          "rating]");
    }
    InstanceSpec::Triplet triplet;
    GF_ASSIGN_OR_RETURN(
        triplet.user,
        IdFromNumber(entry.array[0], "field \"instance.ratings\" user"));
    GF_ASSIGN_OR_RETURN(
        triplet.item,
        IdFromNumber(entry.array[1], "field \"instance.ratings\" item"));
    triplet.rating = entry.array[2].number;
    spec.ratings.push_back(triplet);
  }
  return spec;
}

/// Parses the `groupform.delta/1` "deltas" array: each entry is
/// ["add_user", user], ["remove_user", user], or
/// ["rerate", user, item, rating]. Ids go through IdFromNumber, so
/// int32-wrap values fail here with INVALID_ARGUMENT instead of
/// reaching the data layer's GF_CHECKs; rating values are range-checked
/// later against the instance scale by core::ApplyDeltas.
StatusOr<std::vector<core::PopulationDelta>> ParseDeltas(
    const JsonValue& value) {
  if (value.type != JsonValue::Type::kArray) {
    return WrongType("deltas", value, "array");
  }
  std::vector<core::PopulationDelta> deltas;
  deltas.reserve(value.array.size());
  for (std::size_t i = 0; i < value.array.size(); ++i) {
    const JsonValue& entry = value.array[i];
    const std::string where = common::StrFormat("field \"deltas[%zu]\"", i);
    if (entry.type != JsonValue::Type::kArray || entry.array.empty() ||
        entry.array[0].type != JsonValue::Type::kString) {
      return Status::InvalidArgument(
          where + ": expected [\"add_user\"|\"remove_user\"|\"rerate\", "
                  "ids...]");
    }
    core::PopulationDelta delta;
    const auto kind = core::DeltaKindFromString(entry.array[0].string);
    if (!kind.ok()) {
      return Status::InvalidArgument(where + ": " +
                                     kind.status().message());
    }
    delta.kind = *kind;
    if (delta.kind == core::PopulationDelta::Kind::kRerate) {
      if (entry.array.size() != 4 ||
          entry.array[3].type != JsonValue::Type::kNumber) {
        return Status::InvalidArgument(
            where + ": rerate takes [\"rerate\", user, item, rating]");
      }
      GF_ASSIGN_OR_RETURN(
          delta.user,
          IdFromNumber(entry.array[1], (where + " user").c_str()));
      GF_ASSIGN_OR_RETURN(
          delta.item,
          IdFromNumber(entry.array[2], (where + " item").c_str()));
      delta.rating = entry.array[3].number;
    } else {
      if (entry.array.size() != 2) {
        return Status::InvalidArgument(
            where + ": membership ops take [\"op\", user]");
      }
      GF_ASSIGN_OR_RETURN(
          delta.user,
          IdFromNumber(entry.array[1], (where + " user").c_str()));
    }
    deltas.push_back(delta);
  }
  return deltas;
}

/// Parses a "constraints" pair-list field ("must_link"/"cannot_link"):
/// an array of two-element [a, b] user-id arrays.
Status ParsePairList(const JsonValue& value, const char* key,
                     std::vector<std::pair<UserId, UserId>>* out) {
  if (value.type != JsonValue::Type::kArray) {
    return WrongType(("constraints." + std::string(key)).c_str(), value,
                     "array");
  }
  out->reserve(value.array.size());
  for (std::size_t i = 0; i < value.array.size(); ++i) {
    const JsonValue& entry = value.array[i];
    const std::string where =
        common::StrFormat("field \"constraints.%s[%zu]\"", key, i);
    if (entry.type != JsonValue::Type::kArray || entry.array.size() != 2) {
      return Status::InvalidArgument(where +
                                     ": expected a two-element [a, b] pair");
    }
    GF_ASSIGN_OR_RETURN(const UserId a,
                        IdFromNumber(entry.array[0], where.c_str()));
    GF_ASSIGN_OR_RETURN(const UserId b,
                        IdFromNumber(entry.array[1], where.c_str()));
    out->emplace_back(a, b);
  }
  return Status::Ok();
}

/// Parses the optional "problem.constraints" object (DESIGN.md §17).
/// Structural validity (ordered bounds, distinct pair users, disjoint
/// pair lists) is checked here so malformed specs fail the parse;
/// population-range and feasibility checks wait for the loaded instance.
StatusOr<core::ConstraintSpec> ParseConstraints(const JsonValue& value) {
  if (value.type != JsonValue::Type::kObject) {
    return WrongType("constraints", value, "object");
  }
  core::ConstraintSpec spec;
  GF_ASSIGN_OR_RETURN(const long long min_size,
                      FieldInt(value, "min_group_size", spec.min_group_size,
                               /*min_value=*/1, kMaxInt32Field));
  spec.min_group_size = static_cast<int>(min_size);
  GF_ASSIGN_OR_RETURN(const long long max_size,
                      FieldInt(value, "max_group_size", spec.max_group_size,
                               /*min_value=*/0, kMaxInt32Field));
  spec.max_group_size = static_cast<int>(max_size);
  if (const JsonValue* pairs = value.Find("must_link"); pairs != nullptr) {
    GF_RETURN_IF_ERROR(ParsePairList(*pairs, "must_link", &spec.must_link));
  }
  if (const JsonValue* pairs = value.Find("cannot_link"); pairs != nullptr) {
    GF_RETURN_IF_ERROR(
        ParsePairList(*pairs, "cannot_link", &spec.cannot_link));
  }
  if (const JsonValue* floor = value.Find("min_user_sat"); floor != nullptr) {
    if (floor->type != JsonValue::Type::kNumber) {
      return WrongType("constraints.min_user_sat", *floor, "number");
    }
    spec.has_min_user_sat = true;
    spec.min_user_sat = floor->number;
  }
  if (const Status status = spec.ValidateStructure(); !status.ok()) {
    return Status::InvalidArgument("field \"constraints\": " +
                                   std::string(status.message()));
  }
  return spec;
}

StatusOr<ProblemSpec> ParseProblem(const JsonValue* value) {
  ProblemSpec spec;
  if (value == nullptr) return spec;
  if (value->type != JsonValue::Type::kObject) {
    return WrongType("problem", *value, "object");
  }
  // Token domains live in grouprec/semantics.h, shared with the CLI
  // flags — validate here so bad values fail at parse time, not solve
  // time.
  GF_ASSIGN_OR_RETURN(spec.semantics,
                      FieldString(*value, "semantics", spec.semantics));
  GF_RETURN_IF_ERROR(
      grouprec::SemanticsFromToken(spec.semantics).status());
  GF_ASSIGN_OR_RETURN(spec.aggregation,
                      FieldString(*value, "aggregation", spec.aggregation));
  GF_RETURN_IF_ERROR(
      grouprec::AggregationFromToken(spec.aggregation).status());
  GF_ASSIGN_OR_RETURN(spec.missing,
                      FieldString(*value, "missing", spec.missing));
  GF_RETURN_IF_ERROR(
      grouprec::MissingPolicyFromToken(spec.missing).status());
  GF_ASSIGN_OR_RETURN(const long long k,
                      FieldInt(*value, "k", spec.k, /*min_value=*/1,
                               kMaxInt32Field));
  spec.k = static_cast<int>(k);
  GF_ASSIGN_OR_RETURN(const long long groups,
                      FieldInt(*value, "groups", spec.groups,
                               /*min_value=*/1, kMaxInt32Field));
  spec.groups = static_cast<int>(groups);
  GF_ASSIGN_OR_RETURN(const long long depth,
                      FieldInt(*value, "candidate_depth",
                               spec.candidate_depth, /*min_value=*/0,
                               kMaxInt32Field));
  spec.candidate_depth = static_cast<int>(depth);
  if (const JsonValue* constraints = value->Find("constraints");
      constraints != nullptr) {
    GF_ASSIGN_OR_RETURN(spec.constraints, ParseConstraints(*constraints));
  }
  return spec;
}

/// The canonical "problem" object, shared by RenderRequest and
/// RenderShardRequest so both wires agree byte-for-byte. The constraints
/// object renders only when non-empty — and then only its non-default
/// fields — so every unconstrained request line (and golden) is unchanged.
void RenderProblem(eval::JsonWriter& writer, const ProblemSpec& spec) {
  writer.BeginObject();
  writer.Key("semantics").String(spec.semantics);
  writer.Key("aggregation").String(spec.aggregation);
  writer.Key("missing").String(spec.missing);
  writer.Key("k").Int(spec.k);
  writer.Key("groups").Int(spec.groups);
  writer.Key("candidate_depth").Int(spec.candidate_depth);
  if (!spec.constraints.Empty()) {
    const core::ConstraintSpec& c = spec.constraints;
    writer.Key("constraints").BeginObject();
    if (c.min_group_size > 1) {
      writer.Key("min_group_size").Int(c.min_group_size);
    }
    if (c.max_group_size > 0) {
      writer.Key("max_group_size").Int(c.max_group_size);
    }
    const auto pair_list =
        [&writer](const char* key,
                  const std::vector<std::pair<UserId, UserId>>& pairs) {
          if (pairs.empty()) return;
          writer.Key(key).BeginArray();
          for (const auto& [a, b] : pairs) {
            writer.BeginArray();
            writer.Int(a).Int(b);
            writer.EndArray();
          }
          writer.EndArray();
        };
    pair_list("must_link", c.must_link);
    pair_list("cannot_link", c.cannot_link);
    if (c.has_min_user_sat) {
      writer.Key("min_user_sat").Number(c.min_user_sat);
    }
    writer.EndObject();
  }
  writer.EndObject();
}

void RenderInstance(eval::JsonWriter& writer, const InstanceSpec& spec) {
  writer.BeginObject();
  writer.Key("kind").String(spec.kind);
  // backend/qbits render only off their per-kind defaults, so every
  // pre-backend request line (and its golden) renders unchanged.
  const bool default_backend =
      spec.backend == (spec.kind == "gfcm" ? "mmap" : "dense");
  if (!default_backend) writer.Key("backend").String(spec.backend);
  if (spec.backend == "compact" && spec.kind != "gfcm" &&
      spec.qbits != 8) {
    writer.Key("qbits").Int(spec.qbits);
  }
  if (spec.kind == "csv" || spec.kind == "movielens" ||
      spec.kind == "gfcm") {
    writer.Key("path").String(spec.path);
    writer.EndObject();
    return;
  }
  writer.Key("users").Int(spec.users);
  writer.Key("items").Int(spec.items);
  if (spec.kind == "synthetic") {
    writer.Key("preset").String(spec.preset);
    writer.Key("seed").Int(static_cast<long long>(spec.seed));
  } else if (spec.kind == "dense") {
    writer.Key("clusters").Int(spec.clusters);
    writer.Key("seed").Int(static_cast<long long>(spec.seed));
  } else {  // inline
    writer.Key("scale").BeginArray();
    writer.Number(spec.scale_min).Number(spec.scale_max);
    writer.EndArray();
    writer.Key("ratings").BeginArray();
    for (const auto& triplet : spec.ratings) {
      writer.BeginArray();
      writer.Int(triplet.user).Int(triplet.item).Number(triplet.rating);
      writer.EndArray();
    }
    writer.EndArray();
  }
  writer.EndObject();
}

StatusOr<common::StatusCode> StatusCodeFromString(const std::string& name) {
  for (const common::StatusCode code :
       {common::StatusCode::kOk, common::StatusCode::kInvalidArgument,
        common::StatusCode::kNotFound, common::StatusCode::kOutOfRange,
        common::StatusCode::kFailedPrecondition,
        common::StatusCode::kResourceExhausted,
        common::StatusCode::kUnimplemented, common::StatusCode::kInternal,
        common::StatusCode::kDataLoss, common::StatusCode::kUnavailable}) {
    if (name == common::StatusCodeToString(code)) return code;
  }
  return Status::InvalidArgument("unknown status code \"" + name + "\"");
}

StatusOr<eval::SweepCellState> CellStateFromString(const std::string& name) {
  for (const eval::SweepCellState state :
       {eval::SweepCellState::kOk, eval::SweepCellState::kDnf,
        eval::SweepCellState::kErr}) {
    if (name == eval::SweepCellStateToString(state)) return state;
  }
  return Status::InvalidArgument("unknown response state \"" + name + "\"");
}

}  // namespace

std::string InstanceSpec::CanonicalKey() const {
  // The backend is part of the identity: the same spec loaded dense,
  // compact-quantized, or mmapped is a different cached object (different
  // bytes, different read path). Dense — every pre-backend spec — keeps
  // its historical suffix-free key.
  std::string backend_suffix;
  if (kind == "gfcm") {
    backend_suffix = ":" + backend;
  } else if (backend == "compact") {
    backend_suffix = common::StrFormat(":compact%d", qbits);
  }
  if (kind == "gfcm" || kind == "csv" || kind == "movielens") {
    return kind + ":" + path + backend_suffix;
  }
  if (kind == "synthetic") {
    return common::StrFormat("synthetic:%s:%dx%d:s%llu", preset.c_str(),
                            users, items,
                            static_cast<unsigned long long>(seed)) +
           backend_suffix;
  }
  if (kind == "dense") {
    return common::StrFormat("dense:%dx%d:c%d:s%llu", users, items,
                             clusters,
                             static_cast<unsigned long long>(seed)) +
           backend_suffix;
  }
  // inline: content hash over shape, scale, and every triplet.
  std::size_t hash = 0x51ed2701a4f3c7b9ULL;
  common::HashCombineValue(hash, users);
  common::HashCombineValue(hash, items);
  common::HashCombineValue(hash, scale_min);
  common::HashCombineValue(hash, scale_max);
  for (const Triplet& triplet : ratings) {
    common::HashCombineValue(hash, triplet.user);
    common::HashCombineValue(hash, triplet.item);
    common::HashCombineValue(hash, triplet.rating);
  }
  return common::StrFormat("inline:%dx%d:h%016zx", users, items, hash) +
         backend_suffix;
}

std::string EpochKey(const InstanceSpec& spec,
                     std::span<const core::PopulationDelta> deltas) {
  std::string key = spec.CanonicalKey();
  if (deltas.empty()) return key;
  return key + common::StrFormat(
                   ":d%016llx", static_cast<unsigned long long>(
                                    core::DeltaSequenceHash(deltas)));
}

namespace {

/// The request parser, factored off the line entry point so batch
/// elements (already-parsed JSON objects) reuse it without reparsing.
common::StatusOr<Request> ParseRequestDoc(const JsonValue& root) {
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("request is not a JSON object");
  }
  GF_ASSIGN_OR_RETURN(const std::string schema,
                      FieldString(root, "schema", std::nullopt));
  if (schema != kRequestSchema && schema != kDeltaRequestSchema) {
    return Status::InvalidArgument(common::StrFormat(
        "field \"schema\": expected \"%s\" or \"%s\", got \"%s\"",
        kRequestSchema, kDeltaRequestSchema, schema.c_str()));
  }
  Request request;
  request.is_delta = (schema == kDeltaRequestSchema);
  GF_ASSIGN_OR_RETURN(request.id,
                      FieldString(root, "id", std::string()));
  GF_ASSIGN_OR_RETURN(request.solver,
                      FieldString(root, "solver", std::nullopt));
  if (request.solver.empty()) {
    return Status::InvalidArgument("field \"solver\": empty");
  }
  if (const JsonValue* options = root.Find("options"); options != nullptr) {
    if (options->type != JsonValue::Type::kObject) {
      return WrongType("options", *options, "object");
    }
    for (const auto& [key, value] : options->object) {
      if (value.type == JsonValue::Type::kArray ||
          value.type == JsonValue::Type::kObject ||
          value.type == JsonValue::Type::kNull) {
        return Status::InvalidArgument(common::StrFormat(
            "field \"options.%s\": expected string, number, or bool",
            key.c_str()));
      }
      request.options.Set(key, OptionValueToString(value));
    }
  }
  const JsonValue* instance = root.Find("instance");
  if (instance == nullptr) {
    return Status::InvalidArgument("missing required field \"instance\"");
  }
  GF_ASSIGN_OR_RETURN(request.instance, ParseInstance(*instance));
  if (request.is_delta) {
    const JsonValue* deltas = root.Find("deltas");
    if (deltas == nullptr) {
      return Status::InvalidArgument(
          "missing required field \"deltas\" (groupform.delta/1)");
    }
    GF_ASSIGN_OR_RETURN(request.deltas, ParseDeltas(*deltas));
  } else if (root.Find("deltas") != nullptr) {
    // Silently dropping the array would answer with a solve of the
    // unmutated base population — reject instead.
    return Status::InvalidArgument(
        "field \"deltas\" requires schema \"groupform.delta/1\"");
  }
  GF_ASSIGN_OR_RETURN(request.problem, ParseProblem(root.Find("problem")));
  GF_ASSIGN_OR_RETURN(
      const long long seed,
      FieldInt(root, "seed",
               static_cast<long long>(core::FormationSolver::kDefaultSeed),
               /*min_value=*/0));
  request.seed = static_cast<std::uint64_t>(seed);
  GF_ASSIGN_OR_RETURN(request.deadline_ms,
                      FieldInt(root, "deadline_ms", 0, /*min_value=*/0,
                               kMaxDeadlineMs));
  GF_ASSIGN_OR_RETURN(request.user_cap,
                      FieldInt(root, "user_cap", 0, /*min_value=*/0));
  GF_ASSIGN_OR_RETURN(request.include_groups,
                      FieldBool(root, "include_groups", false));
  GF_ASSIGN_OR_RETURN(request.record_seconds,
                      FieldBool(root, "record_seconds", false));
  return request;
}

}  // namespace

common::StatusOr<Request> ParseRequestLine(const std::string& line) {
  JsonParser parser(line);
  GF_ASSIGN_OR_RETURN(const JsonValue root, parser.Parse());
  return ParseRequestDoc(root);
}

std::string RenderRequest(const Request& request) {
  eval::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(request.is_delta ? kDeltaRequestSchema
                                               : kRequestSchema);
  writer.Key("id").String(request.id);
  writer.Key("solver").String(request.solver);
  writer.Key("options").BeginObject();
  for (const auto& [key, value] : request.options.entries()) {
    writer.Key(key).String(value);
  }
  writer.EndObject();
  writer.Key("instance");
  RenderInstance(writer, request.instance);
  if (request.is_delta) {
    writer.Key("deltas").BeginArray();
    for (const core::PopulationDelta& delta : request.deltas) {
      writer.BeginArray();
      writer.String(core::DeltaKindToString(delta.kind));
      writer.Int(delta.user);
      if (delta.kind == core::PopulationDelta::Kind::kRerate) {
        writer.Int(delta.item);
        writer.Number(delta.rating);
      }
      writer.EndArray();
    }
    writer.EndArray();
  }
  writer.Key("problem");
  RenderProblem(writer, request.problem);
  writer.Key("seed").Int(static_cast<long long>(request.seed));
  writer.Key("deadline_ms").Int(request.deadline_ms);
  writer.Key("user_cap").Int(request.user_cap);
  writer.Key("include_groups").Bool(request.include_groups);
  writer.Key("record_seconds").Bool(request.record_seconds);
  writer.EndObject();
  return writer.str();
}

std::string RenderResponse(const Response& response) {
  eval::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kResponseSchema);
  writer.Key("id").String(response.id);
  writer.Key("state").String(
      eval::SweepCellStateToString(response.state));
  if (response.state == eval::SweepCellState::kOk) {
    writer.Key("solver").String(response.solver);
    writer.Key("objective").Number(response.objective);
    writer.Key("num_groups").Int(response.num_groups);
    writer.Key("metrics").BeginObject();
    writer.Key("avg_group_satisfaction")
        .Number(response.metrics.avg_group_satisfaction);
    writer.Key("mean_user_rating").Number(response.metrics.mean_user_rating);
    writer.Key("mean_user_ndcg").Number(response.metrics.mean_user_ndcg);
    writer.Key("fully_satisfied").Number(response.metrics.fully_satisfied);
    writer.EndObject();
    if (response.has_groups) {
      writer.Key("groups").BeginArray();
      for (const auto& members : response.groups) {
        writer.BeginArray();
        for (const UserId user : members) writer.Int(user);
        writer.EndArray();
      }
      writer.EndArray();
    }
    if (response.is_delta) {
      // After groups, before seconds: an OK delta response is
      // byte-identical to the fresh-request response on the post-delta
      // population up through its groups.
      writer.Key("epoch").String(response.epoch);
      writer.Key("objective_delta_vs_previous")
          .Number(response.objective_delta_vs_previous);
      writer.Key("warm_start_passes").Int(response.warm_start_passes);
    }
    // Anytime extras (DESIGN.md §17.4), set-only so every pre-existing
    // response renders unchanged.
    if (response.partial) writer.Key("partial").Bool(true);
    if (response.floor_violations > 0) {
      writer.Key("floor_violations").Int(response.floor_violations);
    }
    if (response.seconds >= 0.0) {
      writer.Key("seconds").Number(response.seconds);
    }
  } else {
    writer.Key("code").String(
        common::StatusCodeToString(response.status.code()));
    writer.Key("message").String(response.status.message());
  }
  writer.EndObject();
  return writer.str();
}

namespace {

common::StatusOr<Response> ParseResponseDoc(const JsonValue& root) {
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("response is not a JSON object");
  }
  GF_ASSIGN_OR_RETURN(const std::string schema,
                      FieldString(root, "schema", std::nullopt));
  if (schema != kResponseSchema) {
    return Status::InvalidArgument(
        common::StrFormat("field \"schema\": expected \"%s\", got \"%s\"",
                          kResponseSchema, schema.c_str()));
  }
  Response response;
  GF_ASSIGN_OR_RETURN(response.id, FieldString(root, "id", std::string()));
  GF_ASSIGN_OR_RETURN(const std::string state,
                      FieldString(root, "state", std::nullopt));
  GF_ASSIGN_OR_RETURN(response.state, CellStateFromString(state));
  if (response.state != eval::SweepCellState::kOk) {
    GF_ASSIGN_OR_RETURN(const std::string code,
                        FieldString(root, "code", std::nullopt));
    GF_ASSIGN_OR_RETURN(const common::StatusCode parsed,
                        StatusCodeFromString(code));
    GF_ASSIGN_OR_RETURN(const std::string message,
                        FieldString(root, "message", std::string()));
    response.status = Status(parsed, message);
    return response;
  }
  GF_ASSIGN_OR_RETURN(response.solver,
                      FieldString(root, "solver", std::nullopt));
  GF_ASSIGN_OR_RETURN(response.objective,
                      FieldDouble(root, "objective", 0.0));
  GF_ASSIGN_OR_RETURN(const long long num_groups,
                      FieldInt(root, "num_groups", 0, /*min_value=*/0,
                               kMaxInt32Field));
  response.num_groups = static_cast<int>(num_groups);
  if (const JsonValue* metrics = root.Find("metrics"); metrics != nullptr) {
    if (metrics->type != JsonValue::Type::kObject) {
      return WrongType("metrics", *metrics, "object");
    }
    GF_ASSIGN_OR_RETURN(
        response.metrics.avg_group_satisfaction,
        FieldDouble(*metrics, "avg_group_satisfaction", 0.0));
    GF_ASSIGN_OR_RETURN(response.metrics.mean_user_rating,
                        FieldDouble(*metrics, "mean_user_rating", 0.0));
    GF_ASSIGN_OR_RETURN(response.metrics.mean_user_ndcg,
                        FieldDouble(*metrics, "mean_user_ndcg", 0.0));
    GF_ASSIGN_OR_RETURN(response.metrics.fully_satisfied,
                        FieldDouble(*metrics, "fully_satisfied", 0.0));
  }
  if (const JsonValue* groups = root.Find("groups"); groups != nullptr) {
    if (groups->type != JsonValue::Type::kArray) {
      return WrongType("groups", *groups, "array");
    }
    response.has_groups = true;
    response.groups.reserve(groups->array.size());
    for (const JsonValue& members : groups->array) {
      if (members.type != JsonValue::Type::kArray) {
        return Status::InvalidArgument(
            "field \"groups\": expected array of member arrays");
      }
      std::vector<UserId> group;
      group.reserve(members.array.size());
      for (const JsonValue& member : members.array) {
        GF_ASSIGN_OR_RETURN(const UserId user,
                            IdFromNumber(member, "field \"groups\" member"));
        group.push_back(user);
      }
      response.groups.push_back(std::move(group));
    }
  }
  if (const JsonValue* epoch = root.Find("epoch"); epoch != nullptr) {
    if (epoch->type != JsonValue::Type::kString) {
      return WrongType("epoch", *epoch, "string");
    }
    response.is_delta = true;
    response.epoch = epoch->string;
    GF_ASSIGN_OR_RETURN(
        response.objective_delta_vs_previous,
        FieldDouble(root, "objective_delta_vs_previous", 0.0));
    GF_ASSIGN_OR_RETURN(const long long passes,
                        FieldInt(root, "warm_start_passes", 0,
                                 /*min_value=*/0, kMaxInt32Field));
    response.warm_start_passes = static_cast<int>(passes);
  }
  GF_ASSIGN_OR_RETURN(response.partial, FieldBool(root, "partial", false));
  GF_ASSIGN_OR_RETURN(const long long floor_violations,
                      FieldInt(root, "floor_violations", 0,
                               /*min_value=*/0, kMaxInt32Field));
  response.floor_violations = static_cast<int>(floor_violations);
  GF_ASSIGN_OR_RETURN(response.seconds,
                      FieldDouble(root, "seconds", -1.0));
  return response;
}

/// Prefixes a parse error with the batch element it came from.
Status AtElement(const char* what, std::size_t index, const Status& status) {
  return Status(status.code(),
                common::StrFormat("%s[%zu]: ", what, index) +
                    std::string(status.message()));
}

common::StatusOr<BatchRequest> ParseBatchRequestDoc(const JsonValue& root) {
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("batch is not a JSON object");
  }
  GF_ASSIGN_OR_RETURN(const std::string schema,
                      FieldString(root, "schema", std::nullopt));
  if (schema != kBatchRequestSchema) {
    return Status::InvalidArgument(
        common::StrFormat("field \"schema\": expected \"%s\", got \"%s\"",
                          kBatchRequestSchema, schema.c_str()));
  }
  BatchRequest batch;
  GF_ASSIGN_OR_RETURN(batch.id, FieldString(root, "id", std::string()));
  const JsonValue* requests = root.Find("requests");
  if (requests == nullptr || requests->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument(
        "missing required array field \"requests\"");
  }
  if (requests->array.empty()) {
    return Status::InvalidArgument("field \"requests\": empty batch");
  }
  if (requests->array.size() > static_cast<std::size_t>(kMaxBatchRequests)) {
    return Status::InvalidArgument(common::StrFormat(
        "field \"requests\": %zu elements exceed the batch limit of %d",
        requests->array.size(), kMaxBatchRequests));
  }
  batch.requests.reserve(requests->array.size());
  for (std::size_t i = 0; i < requests->array.size(); ++i) {
    // A nested batch fails ParseRequestDoc's schema check, so batches
    // never recurse.
    common::StatusOr<Request> element = ParseRequestDoc(requests->array[i]);
    if (!element.ok()) {
      return AtElement("requests", i, element.status());
    }
    batch.requests.push_back(*std::move(element));
  }
  return batch;
}

}  // namespace

common::StatusOr<Response> ParseResponseLine(const std::string& line) {
  JsonParser parser(line);
  GF_ASSIGN_OR_RETURN(const JsonValue root, parser.Parse());
  return ParseResponseDoc(root);
}

std::string RenderBatchRequest(const BatchRequest& batch) {
  eval::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kBatchRequestSchema);
  writer.Key("id").String(batch.id);
  writer.Key("requests").BeginArray();
  for (const Request& request : batch.requests) {
    writer.Raw(RenderRequest(request));
  }
  writer.EndArray();
  writer.EndObject();
  return writer.str();
}

std::string RenderBatchResponse(const BatchResponse& batch) {
  eval::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kBatchResponseSchema);
  writer.Key("id").String(batch.id);
  writer.Key("responses").BeginArray();
  for (const Response& response : batch.responses) {
    writer.Raw(RenderResponse(response));
  }
  writer.EndArray();
  writer.EndObject();
  return writer.str();
}

namespace {

std::string RenderEnvelopeFromDocs(const char* schema, const char* key,
                                   const std::string& id,
                                   std::span<const std::string> docs) {
  eval::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(schema);
  writer.Key("id").String(id);
  writer.Key(key).BeginArray();
  for (const std::string& doc : docs) {
    writer.Raw(doc);
  }
  writer.EndArray();
  writer.EndObject();
  return writer.str();
}

// A raw scan over a canonical envelope, not a JSON parse: the whole
// point is returning each element's bytes untouched. The canonical
// renderer fixes the key order, so the prefix is literal; the id value
// is walked escape-aware (ids are client-chosen and may contain
// anything, but an unescaped '"' cannot appear inside a JSON string).
StatusOr<std::vector<std::string>> SplitEnvelopeDocs(
    const std::string& line, const char* schema, const char* key) {
  const std::string prefix =
      common::StrFormat("{\"schema\":\"%s\",\"id\":\"", schema);
  const std::string array_key = common::StrFormat(",\"%s\":[", key);
  const auto malformed = [schema] {
    return Status::InvalidArgument(
        common::StrFormat("not a canonical %s envelope", schema));
  };
  if (line.compare(0, prefix.size(), prefix) != 0) {
    return malformed();
  }
  std::size_t pos = prefix.size();
  bool escape = false;
  while (pos < line.size()) {
    const char c = line[pos++];
    if (escape) {
      escape = false;
    } else if (c == '\\') {
      escape = true;
    } else if (c == '"') {
      break;
    }
  }
  if (line.compare(pos, array_key.size(), array_key) != 0) {
    return malformed();
  }
  pos += array_key.size();
  std::vector<std::string> docs;
  if (pos < line.size() && line[pos] == ']') {
    ++pos;
  } else {
    std::size_t start = pos;
    int depth = 0;
    bool in_string = false;
    escape = false;
    for (; pos < line.size(); ++pos) {
      const char c = line[pos];
      if (in_string) {
        if (escape) {
          escape = false;
        } else if (c == '\\') {
          escape = true;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) {
          if (c != ']' || pos == start) return malformed();
          docs.push_back(line.substr(start, pos - start));
          ++pos;
          break;
        }
        --depth;
      } else if (c == ',' && depth == 0) {
        if (pos == start) return malformed();
        docs.push_back(line.substr(start, pos - start));
        start = pos + 1;
      }
    }
    if (in_string || depth != 0) return malformed();
  }
  if (line.compare(pos, std::string::npos, "}") != 0) return malformed();
  return docs;
}

}  // namespace

std::string RenderBatchResponseFromDocs(
    const std::string& id, std::span<const std::string> response_docs) {
  return RenderEnvelopeFromDocs(kBatchResponseSchema, "responses", id,
                                response_docs);
}

common::StatusOr<std::vector<std::string>> SplitBatchResponseDocs(
    const std::string& line) {
  return SplitEnvelopeDocs(line, kBatchResponseSchema, "responses");
}

std::string RenderBatchRequestFromDocs(
    const std::string& id, std::span<const std::string> request_docs) {
  return RenderEnvelopeFromDocs(kBatchRequestSchema, "requests", id,
                                request_docs);
}

common::StatusOr<std::vector<std::string>> SplitBatchRequestDocs(
    const std::string& line) {
  return SplitEnvelopeDocs(line, kBatchRequestSchema, "requests");
}

common::StatusOr<BatchResponse> ParseBatchResponseLine(
    const std::string& line) {
  JsonParser parser(line);
  GF_ASSIGN_OR_RETURN(const JsonValue root, parser.Parse());
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("batch response is not a JSON object");
  }
  GF_ASSIGN_OR_RETURN(const std::string schema,
                      FieldString(root, "schema", std::nullopt));
  if (schema != kBatchResponseSchema) {
    return Status::InvalidArgument(
        common::StrFormat("field \"schema\": expected \"%s\", got \"%s\"",
                          kBatchResponseSchema, schema.c_str()));
  }
  BatchResponse batch;
  GF_ASSIGN_OR_RETURN(batch.id, FieldString(root, "id", std::string()));
  const JsonValue* responses = root.Find("responses");
  if (responses == nullptr || responses->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument(
        "missing required array field \"responses\"");
  }
  batch.responses.reserve(responses->array.size());
  for (std::size_t i = 0; i < responses->array.size(); ++i) {
    common::StatusOr<Response> element =
        ParseResponseDoc(responses->array[i]);
    if (!element.ok()) {
      return AtElement("responses", i, element.status());
    }
    batch.responses.push_back(*std::move(element));
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Shard verbs (DESIGN.md §16.3)

namespace {

void RenderShardList(eval::JsonWriter& writer, const ShardList& list) {
  writer.BeginObject();
  writer.Key("items").BeginArray();
  for (const ItemId item : list.items) writer.Int(item);
  writer.EndArray();
  writer.Key("scores").BeginArray();
  for (const double score : list.scores) writer.Number(score);
  writer.EndArray();
  writer.EndObject();
}

StatusOr<ShardList> ParseShardList(const char* key, const JsonValue& value) {
  if (value.type != JsonValue::Type::kObject) {
    return WrongType(key, value, "object");
  }
  const JsonValue* items = value.Find("items");
  const JsonValue* scores = value.Find("scores");
  if (items == nullptr || items->type != JsonValue::Type::kArray ||
      scores == nullptr || scores->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument(common::StrFormat(
        "field \"%s\": expected \"items\" and \"scores\" arrays", key));
  }
  if (items->array.size() != scores->array.size()) {
    return Status::InvalidArgument(common::StrFormat(
        "field \"%s\": %zu items vs %zu scores", key, items->array.size(),
        scores->array.size()));
  }
  ShardList list;
  list.items.reserve(items->array.size());
  list.scores.reserve(scores->array.size());
  for (const JsonValue& element : items->array) {
    GF_ASSIGN_OR_RETURN(const std::int32_t item, IdFromNumber(element, key));
    list.items.push_back(item);
  }
  for (const JsonValue& element : scores->array) {
    if (element.type != JsonValue::Type::kNumber) {
      return WrongType(key, element, "number");
    }
    list.scores.push_back(element.number);
  }
  return list;
}

common::StatusOr<ShardRequest> ParseShardRequestDoc(const JsonValue& root) {
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("shard request is not a JSON object");
  }
  GF_ASSIGN_OR_RETURN(const std::string schema,
                      FieldString(root, "schema", std::nullopt));
  if (schema != kShardRequestSchema) {
    return Status::InvalidArgument(
        common::StrFormat("field \"schema\": expected \"%s\", got \"%s\"",
                          kShardRequestSchema, schema.c_str()));
  }
  ShardRequest request;
  GF_ASSIGN_OR_RETURN(request.id, FieldString(root, "id", std::string()));
  GF_ASSIGN_OR_RETURN(request.phase,
                      FieldString(root, "phase", std::nullopt));
  GF_RETURN_IF_ERROR(
      CheckOneOf("phase", request.phase, {"topk_users", "topk_items"}));
  const JsonValue* instance = root.Find("instance");
  if (instance == nullptr) {
    return Status::InvalidArgument("missing required field \"instance\"");
  }
  GF_ASSIGN_OR_RETURN(request.instance, ParseInstance(*instance));
  GF_ASSIGN_OR_RETURN(request.problem, ParseProblem(root.Find("problem")));
  if (request.phase == "topk_users") {
    GF_ASSIGN_OR_RETURN(const long long begin,
                        FieldInt(root, "user_begin", 0, /*min_value=*/0,
                                 kMaxInt32Field));
    GF_ASSIGN_OR_RETURN(const long long end,
                        FieldInt(root, "user_end", 0, /*min_value=*/0,
                                 kMaxInt32Field));
    if (end < begin) {
      return Status::InvalidArgument(common::StrFormat(
          "field \"user_end\": %lld is before user_begin %lld", end, begin));
    }
    request.user_begin = static_cast<std::int32_t>(begin);
    request.user_end = static_cast<std::int32_t>(end);
    return request;
  }
  const JsonValue* members = root.Find("members");
  if (members == nullptr || members->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument(
        "missing required array field \"members\" (phase topk_items)");
  }
  request.members.reserve(members->array.size());
  for (const JsonValue& element : members->array) {
    GF_ASSIGN_OR_RETURN(const std::int32_t user,
                        IdFromNumber(element, "members"));
    request.members.push_back(user);
  }
  GF_ASSIGN_OR_RETURN(const long long begin,
                      FieldInt(root, "item_begin", 0, /*min_value=*/0,
                               kMaxInt32Field));
  GF_ASSIGN_OR_RETURN(const long long end,
                      FieldInt(root, "item_end", 0, /*min_value=*/0,
                               kMaxInt32Field));
  if (end < begin) {
    return Status::InvalidArgument(common::StrFormat(
        "field \"item_end\": %lld is before item_begin %lld", end, begin));
  }
  request.item_begin = static_cast<std::int32_t>(begin);
  request.item_end = static_cast<std::int32_t>(end);
  return request;
}

}  // namespace

std::string RenderShardRequest(const ShardRequest& request) {
  eval::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kShardRequestSchema);
  writer.Key("id").String(request.id);
  writer.Key("phase").String(request.phase);
  writer.Key("instance");
  RenderInstance(writer, request.instance);
  writer.Key("problem");
  RenderProblem(writer, request.problem);
  if (request.phase == "topk_items") {
    writer.Key("members").BeginArray();
    for (const UserId user : request.members) writer.Int(user);
    writer.EndArray();
    writer.Key("item_begin").Int(request.item_begin);
    writer.Key("item_end").Int(request.item_end);
  } else {
    writer.Key("user_begin").Int(request.user_begin);
    writer.Key("user_end").Int(request.user_end);
  }
  writer.EndObject();
  return writer.str();
}

std::string RenderShardResponse(const ShardResponse& response) {
  eval::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kShardResponseSchema);
  writer.Key("id").String(response.id);
  writer.Key("state").String(response.ok ? "OK" : "ERR");
  if (!response.ok) {
    writer.Key("code").String(
        common::StatusCodeToString(response.status.code()));
    writer.Key("message").String(response.status.message());
    writer.EndObject();
    return writer.str();
  }
  writer.Key("phase").String(response.phase);
  if (response.phase == "topk_items") {
    writer.Key("list");
    RenderShardList(writer, response.list);
  } else {
    writer.Key("users").BeginArray();
    for (const ShardList& list : response.users) {
      RenderShardList(writer, list);
    }
    writer.EndArray();
  }
  writer.EndObject();
  return writer.str();
}

common::StatusOr<ShardResponse> ParseShardResponseLine(
    const std::string& line) {
  JsonParser parser(line);
  GF_ASSIGN_OR_RETURN(const JsonValue root, parser.Parse());
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("shard response is not a JSON object");
  }
  GF_ASSIGN_OR_RETURN(const std::string schema,
                      FieldString(root, "schema", std::nullopt));
  if (schema != kShardResponseSchema) {
    return Status::InvalidArgument(
        common::StrFormat("field \"schema\": expected \"%s\", got \"%s\"",
                          kShardResponseSchema, schema.c_str()));
  }
  ShardResponse response;
  GF_ASSIGN_OR_RETURN(response.id, FieldString(root, "id", std::string()));
  GF_ASSIGN_OR_RETURN(const std::string state,
                      FieldString(root, "state", std::nullopt));
  if (state == "ERR") {
    response.ok = false;
    GF_ASSIGN_OR_RETURN(const std::string code,
                        FieldString(root, "code", std::nullopt));
    GF_ASSIGN_OR_RETURN(const common::StatusCode parsed,
                        StatusCodeFromString(code));
    GF_ASSIGN_OR_RETURN(const std::string message,
                        FieldString(root, "message", std::string()));
    response.status = common::Status(parsed, message);
    return response;
  }
  if (state != "OK") {
    return Status::InvalidArgument("field \"state\": expected OK or ERR");
  }
  GF_ASSIGN_OR_RETURN(response.phase,
                      FieldString(root, "phase", std::nullopt));
  GF_RETURN_IF_ERROR(
      CheckOneOf("phase", response.phase, {"topk_users", "topk_items"}));
  if (response.phase == "topk_items") {
    const JsonValue* list = root.Find("list");
    if (list == nullptr) {
      return Status::InvalidArgument("missing required field \"list\"");
    }
    GF_ASSIGN_OR_RETURN(response.list, ParseShardList("list", *list));
    return response;
  }
  const JsonValue* users = root.Find("users");
  if (users == nullptr || users->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument(
        "missing required array field \"users\"");
  }
  response.users.reserve(users->array.size());
  for (std::size_t i = 0; i < users->array.size(); ++i) {
    common::StatusOr<ShardList> list =
        ParseShardList("users", users->array[i]);
    if (!list.ok()) return AtElement("users", i, list.status());
    response.users.push_back(*std::move(list));
  }
  return response;
}

common::StatusOr<AnyRequest> ParseAnyRequestLine(const std::string& line) {
  JsonParser parser(line);
  GF_ASSIGN_OR_RETURN(const JsonValue root, parser.Parse());
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("request is not a JSON object");
  }
  GF_ASSIGN_OR_RETURN(const std::string schema,
                      FieldString(root, "schema", std::nullopt));
  AnyRequest any;
  if (schema == kBatchRequestSchema) {
    any.is_batch = true;
    GF_ASSIGN_OR_RETURN(any.batch, ParseBatchRequestDoc(root));
    return any;
  }
  if (schema == kShardRequestSchema) {
    any.is_shard = true;
    GF_ASSIGN_OR_RETURN(any.shard, ParseShardRequestDoc(root));
    return any;
  }
  GF_ASSIGN_OR_RETURN(any.request, ParseRequestDoc(root));
  return any;
}

// ---------------------------------------------------------------------------
// GFB1 frame codec

namespace {

void PutU32Le(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
  out.push_back(static_cast<char>((value >> 16) & 0xff));
  out.push_back(static_cast<char>((value >> 24) & 0xff));
}

std::uint32_t GetU32Le(std::string_view bytes) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[1]))
          << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3]))
          << 24);
}

}  // namespace

std::string EncodeFrame(FrameType type, std::uint16_t credits,
                        std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32Le(out, static_cast<std::uint32_t>(payload.size()));
  out.push_back(static_cast<char>(type));
  out.push_back(0);  // flags: must be 0 in GFB1
  out.push_back(static_cast<char>(credits & 0xff));
  out.push_back(static_cast<char>((credits >> 8) & 0xff));
  out.append(payload);
  return out;
}

FrameDecodeResult DecodeFrame(std::string_view buffer,
                              std::size_t max_payload_bytes, Frame* frame,
                              std::size_t* consumed, std::string* error) {
  *consumed = 0;
  if (buffer.size() < kFrameHeaderBytes) {
    // A header prefix can already prove the frame bad — check what we
    // have so a garbage stream fails fast instead of stalling on
    // kNeedMore forever.
    if (buffer.size() >= 5) {
      const auto type = static_cast<std::uint8_t>(buffer[4]);
      if (type > static_cast<std::uint8_t>(FrameType::kBatchResponse)) {
        *error = common::StrFormat("unknown frame type %u", type);
        return FrameDecodeResult::kError;
      }
    }
    if (buffer.size() >= 6 && buffer[5] != 0) {
      *error = common::StrFormat(
          "nonzero frame flags 0x%02x",
          static_cast<unsigned>(static_cast<unsigned char>(buffer[5])));
      return FrameDecodeResult::kError;
    }
    return FrameDecodeResult::kNeedMore;
  }
  const std::uint32_t payload_bytes = GetU32Le(buffer.substr(0, 4));
  const auto type = static_cast<std::uint8_t>(buffer[4]);
  if (type > static_cast<std::uint8_t>(FrameType::kBatchResponse)) {
    *error = common::StrFormat("unknown frame type %u", type);
    return FrameDecodeResult::kError;
  }
  if (buffer[5] != 0) {
    *error = common::StrFormat(
        "nonzero frame flags 0x%02x",
        static_cast<unsigned>(static_cast<unsigned char>(buffer[5])));
    return FrameDecodeResult::kError;
  }
  if (payload_bytes > max_payload_bytes) {
    *error = common::StrFormat(
        "frame payload of %u bytes exceeds the %zu-byte limit",
        payload_bytes, max_payload_bytes);
    return FrameDecodeResult::kError;
  }
  if (buffer.size() < kFrameHeaderBytes + payload_bytes) {
    return FrameDecodeResult::kNeedMore;
  }
  frame->type = static_cast<FrameType>(type);
  frame->credits = static_cast<std::uint16_t>(
      static_cast<unsigned char>(buffer[6]) |
      (static_cast<unsigned>(static_cast<unsigned char>(buffer[7])) << 8));
  frame->payload.assign(buffer.substr(kFrameHeaderBytes, payload_bytes));
  *consumed = kFrameHeaderBytes + payload_bytes;
  return FrameDecodeResult::kFrame;
}

std::string RenderHello(const Hello& hello) {
  eval::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kHelloSchema);
  writer.Key("credits").Int(hello.credits);
  writer.Key("max_frame_bytes").Int(hello.max_frame_bytes);
  writer.Key("max_batch_requests").Int(hello.max_batch_requests);
  writer.EndObject();
  return writer.str();
}

common::StatusOr<Hello> ParseHelloPayload(const std::string& payload) {
  JsonParser parser(payload);
  GF_ASSIGN_OR_RETURN(const JsonValue root, parser.Parse());
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("hello is not a JSON object");
  }
  GF_ASSIGN_OR_RETURN(const std::string schema,
                      FieldString(root, "schema", std::nullopt));
  if (schema != kHelloSchema) {
    return Status::InvalidArgument(
        common::StrFormat("field \"schema\": expected \"%s\", got \"%s\"",
                          kHelloSchema, schema.c_str()));
  }
  Hello hello;
  GF_ASSIGN_OR_RETURN(const long long credits,
                      FieldInt(root, "credits", 0, /*min_value=*/1,
                               kMaxInt32Field));
  hello.credits = static_cast<int>(credits);
  GF_ASSIGN_OR_RETURN(hello.max_frame_bytes,
                      FieldInt(root, "max_frame_bytes", 0, /*min_value=*/1));
  GF_ASSIGN_OR_RETURN(const long long max_batch,
                      FieldInt(root, "max_batch_requests", kMaxBatchRequests,
                               /*min_value=*/1, kMaxInt32Field));
  hello.max_batch_requests = static_cast<int>(max_batch);
  return hello;
}

}  // namespace groupform::serve
