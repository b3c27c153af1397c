#include "chaos/scenario.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "util/json_string.h"
#include "util/logging.h"

namespace flowercdn {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the scenario schema (objects,
// arrays, strings with the escapes \" \\ \/ \n \t and ASCII \uXXXX,
// numbers, bools).
// Kept private to this translation unit; the rest of the codebase only
// *writes* JSON.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    FLOWERCDN_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("scenario JSON: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject() {
    if (!Consume('{')) return Error("expected '{'");
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    if (Consume('}')) return value;
    while (true) {
      FLOWERCDN_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      if (!Consume(':')) return Error("expected ':' after object key");
      FLOWERCDN_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      for (const auto& [k, v] : value.object) {
        (void)v;
        if (k == key.string) return Error("duplicate key \"" + k + "\"");
      }
      value.object.emplace_back(std::move(key.string), std::move(member));
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    if (!Consume('[')) return Error("expected '['");
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    if (Consume(']')) return value;
    while (true) {
      FLOWERCDN_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      value.array.push_back(std::move(element));
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Error("raw control character in string");
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': value.string.push_back('"'); break;
          case '\\': value.string.push_back('\\'); break;
          case '/': value.string.push_back('/'); break;
          case 'n': value.string.push_back('\n'); break;
          case 't': value.string.push_back('\t'); break;
          case 'u':
            FLOWERCDN_RETURN_NOT_OK(ParseUnicodeEscape(&value.string));
            break;
          default:
            return Error(std::string("unsupported escape '\\") + esc + "'");
        }
      } else {
        value.string.push_back(c);
      }
    }
    return Error("unterminated string");
  }

  // The four hex digits after "\u": an ASCII character, which covers the
  // control characters WriteJsonString escapes this way.
  Status ParseUnicodeEscape(std::string* out) {
    unsigned code = 0;
    const char* digits = text_.data() + pos_;
    if (text_.size() - pos_ < 4 ||
        std::from_chars(digits, digits + 4, code, 16).ptr != digits + 4) {
      return Error("malformed \\u escape");
    }
    if (code >= 0x80) return Error("unsupported non-ASCII \\u escape");
    pos_ += 4;
    out->push_back(static_cast<char>(code));
    return Status::OK();
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return Error("expected boolean");
  }

  Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return Error("expected null");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    double parsed = 0;
    std::string token = text_.substr(start, pos_ - start);
    if (std::sscanf(token.c_str(), "%lf", &parsed) != 1) {
      return Error("malformed number \"" + token + "\"");
    }
    value.number = parsed;
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Shortest round-trip double formatting, matching the runner's JsonWriter
// so the canonical form is byte-stable.
std::string FormatDouble(double v) {
  if (v == static_cast<int64_t>(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  FLOWERCDN_CHECK(ec == std::errc());
  return std::string(buf, end);
}

double MsToMin(double ms) { return ms / static_cast<double>(kMinute); }

Status CheckKeys(const JsonValue& obj,
                 const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : obj.object) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return Status::InvalidArgument("scenario JSON: unknown field \"" + key +
                                     "\"");
    }
  }
  return Status::OK();
}

Result<double> GetNumber(const JsonValue& obj, const std::string& key,
                         bool required, double fallback = 0) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    if (required) {
      return Status::InvalidArgument("scenario JSON: missing field \"" + key +
                                     "\"");
    }
    return fallback;
  }
  if (v->kind != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument("scenario JSON: field \"" + key +
                                   "\" must be a number");
  }
  return v->number;
}

// A time field: finite minutes in [0, kMaxScenarioMinutes], as ms.
Result<SimTime> GetMinutes(const JsonValue& obj, const std::string& key,
                           bool required) {
  FLOWERCDN_ASSIGN_OR_RETURN(double minutes, GetNumber(obj, key, required));
  if (!(minutes >= 0 && minutes <= kMaxScenarioMinutes)) {
    return Status::InvalidArgument(
        "scenario JSON: field \"" + key + "\" must be minutes in [0, " +
        std::to_string(static_cast<int64_t>(kMaxScenarioMinutes)) + "]");
  }
  return static_cast<SimTime>(std::llround(minutes * kMinute));
}

// A website or locality field: a non-negative integer up to `max`.
Result<uint32_t> GetIndex(const JsonValue& obj, const std::string& key,
                          uint32_t max) {
  FLOWERCDN_ASSIGN_OR_RETURN(double v, GetNumber(obj, key, true));
  if (!(v >= 0 && v <= max && v == std::floor(v))) {
    return Status::InvalidArgument("scenario JSON: field \"" + key +
                                   "\" must be a non-negative integer");
  }
  return static_cast<uint32_t>(v);
}

constexpr uint32_t kMaxLocality = INT32_MAX;

Result<ScenarioAction> ParseAction(const JsonValue& obj) {
  if (obj.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("scenario JSON: action must be an object");
  }
  const JsonValue* type = obj.Find("type");
  if (type == nullptr || type->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument(
        "scenario JSON: action needs a string \"type\"");
  }
  ScenarioAction action;
  const std::string& tag = type->string;
  if (tag == "kill_directory") {
    FLOWERCDN_RETURN_NOT_OK(
        CheckKeys(obj, {"type", "website", "locality", "t_min"}));
    action.type = ScenarioAction::Type::kKillDirectory;
    FLOWERCDN_ASSIGN_OR_RETURN(action.website,
                               GetIndex(obj, "website", UINT32_MAX));
    FLOWERCDN_ASSIGN_OR_RETURN(uint32_t loc,
                               GetIndex(obj, "locality", kMaxLocality));
    action.loc_a = static_cast<ScenarioLocality>(loc);
    FLOWERCDN_ASSIGN_OR_RETURN(action.t, GetMinutes(obj, "t_min", true));
  } else if (tag == "partition") {
    FLOWERCDN_RETURN_NOT_OK(
        CheckKeys(obj, {"type", "loc_a", "loc_b", "t_min", "duration_min"}));
    action.type = ScenarioAction::Type::kPartition;
    FLOWERCDN_ASSIGN_OR_RETURN(uint32_t a,
                               GetIndex(obj, "loc_a", kMaxLocality));
    FLOWERCDN_ASSIGN_OR_RETURN(uint32_t b,
                               GetIndex(obj, "loc_b", kMaxLocality));
    action.loc_a = static_cast<ScenarioLocality>(a);
    action.loc_b = static_cast<ScenarioLocality>(b);
    FLOWERCDN_ASSIGN_OR_RETURN(action.t, GetMinutes(obj, "t_min", true));
    FLOWERCDN_ASSIGN_OR_RETURN(action.duration,
                               GetMinutes(obj, "duration_min", true));
  } else if (tag == "loss_ramp") {
    FLOWERCDN_RETURN_NOT_OK(
        CheckKeys(obj, {"type", "rate", "t0_min", "t1_min"}));
    action.type = ScenarioAction::Type::kLossRamp;
    FLOWERCDN_ASSIGN_OR_RETURN(action.rate, GetNumber(obj, "rate", true));
    FLOWERCDN_ASSIGN_OR_RETURN(action.t, GetMinutes(obj, "t0_min", true));
    FLOWERCDN_ASSIGN_OR_RETURN(SimTime t1, GetMinutes(obj, "t1_min", true));
    action.duration = t1 - action.t;
  } else if (tag == "churn_spike") {
    FLOWERCDN_RETURN_NOT_OK(
        CheckKeys(obj, {"type", "factor", "t_min", "duration_min"}));
    action.type = ScenarioAction::Type::kChurnSpike;
    FLOWERCDN_ASSIGN_OR_RETURN(action.factor, GetNumber(obj, "factor", true));
    FLOWERCDN_ASSIGN_OR_RETURN(action.t, GetMinutes(obj, "t_min", true));
    FLOWERCDN_ASSIGN_OR_RETURN(action.duration,
                               GetMinutes(obj, "duration_min", true));
  } else if (tag == "flash_crowd") {
    FLOWERCDN_RETURN_NOT_OK(CheckKeys(
        obj, {"type", "website", "t_min", "multiplier", "duration_min"}));
    action.type = ScenarioAction::Type::kFlashCrowd;
    FLOWERCDN_ASSIGN_OR_RETURN(action.website,
                               GetIndex(obj, "website", UINT32_MAX));
    FLOWERCDN_ASSIGN_OR_RETURN(action.t, GetMinutes(obj, "t_min", true));
    FLOWERCDN_ASSIGN_OR_RETURN(action.factor,
                               GetNumber(obj, "multiplier", true));
    FLOWERCDN_ASSIGN_OR_RETURN(action.duration,
                               GetMinutes(obj, "duration_min", false));
  } else {
    return Status::InvalidArgument("scenario JSON: unknown action type \"" +
                                   tag + "\"");
  }
  return action;
}

}  // namespace

const char* ScenarioAction::TypeName(Type type) {
  switch (type) {
    case Type::kKillDirectory: return "kill_directory";
    case Type::kPartition: return "partition";
    case Type::kLossRamp: return "loss_ramp";
    case Type::kChurnSpike: return "churn_spike";
    case Type::kFlashCrowd: return "flash_crowd";
  }
  return "unknown";
}

namespace {
void InsertSorted(std::vector<ScenarioAction>& actions,
                  ScenarioAction action) {
  auto it = std::upper_bound(
      actions.begin(), actions.end(), action,
      [](const ScenarioAction& a, const ScenarioAction& b) {
        return a.t < b.t;
      });
  actions.insert(it, std::move(action));
}
}  // namespace

ScenarioScript& ScenarioScript::AddKillDirectory(WebsiteId ws,
                                                 ScenarioLocality loc,
                                                 SimTime t) {
  ScenarioAction a;
  a.type = ScenarioAction::Type::kKillDirectory;
  a.website = ws;
  a.loc_a = loc;
  a.t = t;
  InsertSorted(actions, a);
  return *this;
}

ScenarioScript& ScenarioScript::AddPartition(ScenarioLocality loc_a,
                                             ScenarioLocality loc_b,
                                             SimTime t, SimDuration duration) {
  ScenarioAction a;
  a.type = ScenarioAction::Type::kPartition;
  a.loc_a = loc_a;
  a.loc_b = loc_b;
  a.t = t;
  a.duration = duration;
  InsertSorted(actions, a);
  return *this;
}

ScenarioScript& ScenarioScript::AddLossRamp(double rate, SimTime t0,
                                            SimTime t1) {
  ScenarioAction a;
  a.type = ScenarioAction::Type::kLossRamp;
  a.rate = rate;
  a.t = t0;
  a.duration = t1 - t0;
  InsertSorted(actions, a);
  return *this;
}

ScenarioScript& ScenarioScript::AddChurnSpike(double factor, SimTime t,
                                              SimDuration duration) {
  ScenarioAction a;
  a.type = ScenarioAction::Type::kChurnSpike;
  a.factor = factor;
  a.t = t;
  a.duration = duration;
  InsertSorted(actions, a);
  return *this;
}

ScenarioScript& ScenarioScript::AddFlashCrowd(WebsiteId ws, SimTime t,
                                              double multiplier,
                                              SimDuration duration) {
  ScenarioAction a;
  a.type = ScenarioAction::Type::kFlashCrowd;
  a.website = ws;
  a.t = t;
  a.factor = multiplier;
  a.duration = duration;
  InsertSorted(actions, a);
  return *this;
}

Status ScenarioScript::Validate() const {
  auto check_rate = [](double rate, const char* what) {
    if (rate < 0 || rate > 1) {
      return Status::InvalidArgument(std::string(what) +
                                     " must be in [0, 1], got " +
                                     std::to_string(rate));
    }
    return Status::OK();
  };
  FLOWERCDN_RETURN_NOT_OK(check_rate(loss_rate, "loss_rate"));
  FLOWERCDN_RETURN_NOT_OK(check_rate(duplicate_rate, "duplicate_rate"));
  if (!(delay_jitter_ms >= 0 && std::isfinite(delay_jitter_ms))) {
    return Status::InvalidArgument("delay_jitter_ms must be finite and >= 0");
  }
  for (const ScenarioAction& a : actions) {
    if (a.t < 0) {
      return Status::InvalidArgument("action time must be >= 0");
    }
    if (a.duration < 0) {
      return Status::InvalidArgument("action duration must be >= 0");
    }
    switch (a.type) {
      case ScenarioAction::Type::kLossRamp:
        FLOWERCDN_RETURN_NOT_OK(check_rate(a.rate, "loss_ramp rate"));
        break;
      case ScenarioAction::Type::kChurnSpike:
      case ScenarioAction::Type::kFlashCrowd:
        if (!(a.factor > 0 && std::isfinite(a.factor))) {
          return Status::InvalidArgument(
              std::string(ScenarioAction::TypeName(a.type)) +
              " factor must be finite and > 0");
        }
        break;
      case ScenarioAction::Type::kPartition:
        if (a.loc_a == a.loc_b) {
          return Status::InvalidArgument(
              "partition needs two distinct localities");
        }
        break;
      case ScenarioAction::Type::kKillDirectory:
        break;
    }
  }
  return Status::OK();
}

Status ScenarioScript::CheckWebsites(int num_websites) const {
  for (const ScenarioAction& a : actions) {
    bool names_website = a.type == ScenarioAction::Type::kKillDirectory ||
                         a.type == ScenarioAction::Type::kFlashCrowd;
    if (names_website && a.website >= static_cast<WebsiteId>(num_websites)) {
      return Status::InvalidArgument(
          std::string("scenario: ") + ScenarioAction::TypeName(a.type) +
          " website " + std::to_string(a.website) + " is outside the " +
          std::to_string(num_websites) + "-website catalog");
    }
  }
  return Status::OK();
}

std::string ScenarioScript::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"name\": ";
  WriteJsonString(out, name);
  if (loss_rate != 0) out << ",\n  \"loss_rate\": " << FormatDouble(loss_rate);
  if (delay_jitter_ms != 0) {
    out << ",\n  \"delay_jitter_ms\": " << FormatDouble(delay_jitter_ms);
  }
  if (duplicate_rate != 0) {
    out << ",\n  \"duplicate_rate\": " << FormatDouble(duplicate_rate);
  }
  out << ",\n  \"actions\": [";
  for (size_t i = 0; i < actions.size(); ++i) {
    const ScenarioAction& a = actions[i];
    out << (i ? ",\n    " : "\n    ");
    out << "{\"type\": \"" << ScenarioAction::TypeName(a.type) << "\"";
    switch (a.type) {
      case ScenarioAction::Type::kKillDirectory:
        out << ", \"website\": " << a.website << ", \"locality\": " << a.loc_a
            << ", \"t_min\": "
            << FormatDouble(MsToMin(static_cast<double>(a.t)));
        break;
      case ScenarioAction::Type::kPartition:
        out << ", \"loc_a\": " << a.loc_a << ", \"loc_b\": " << a.loc_b
            << ", \"t_min\": "
            << FormatDouble(MsToMin(static_cast<double>(a.t)))
            << ", \"duration_min\": "
            << FormatDouble(MsToMin(static_cast<double>(a.duration)));
        break;
      case ScenarioAction::Type::kLossRamp:
        out << ", \"rate\": " << FormatDouble(a.rate) << ", \"t0_min\": "
            << FormatDouble(MsToMin(static_cast<double>(a.t)))
            << ", \"t1_min\": "
            << FormatDouble(MsToMin(static_cast<double>(a.t + a.duration)));
        break;
      case ScenarioAction::Type::kChurnSpike:
        out << ", \"factor\": " << FormatDouble(a.factor) << ", \"t_min\": "
            << FormatDouble(MsToMin(static_cast<double>(a.t)))
            << ", \"duration_min\": "
            << FormatDouble(MsToMin(static_cast<double>(a.duration)));
        break;
      case ScenarioAction::Type::kFlashCrowd:
        out << ", \"website\": " << a.website << ", \"t_min\": "
            << FormatDouble(MsToMin(static_cast<double>(a.t)))
            << ", \"multiplier\": " << FormatDouble(a.factor)
            << ", \"duration_min\": "
            << FormatDouble(MsToMin(static_cast<double>(a.duration)));
        break;
    }
    out << "}";
  }
  out << (actions.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

Result<ScenarioScript> ScenarioScript::ParseJson(const std::string& text) {
  JsonParser parser(text);
  FLOWERCDN_ASSIGN_OR_RETURN(JsonValue root, parser.Parse());
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("scenario JSON: document must be an object");
  }
  FLOWERCDN_RETURN_NOT_OK(CheckKeys(
      root,
      {"name", "loss_rate", "delay_jitter_ms", "duplicate_rate", "actions"}));
  ScenarioScript script;
  if (const JsonValue* name = root.Find("name")) {
    if (name->kind != JsonValue::Kind::kString) {
      return Status::InvalidArgument("scenario JSON: \"name\" must be a string");
    }
    script.name = name->string;
  }
  FLOWERCDN_ASSIGN_OR_RETURN(script.loss_rate,
                             GetNumber(root, "loss_rate", false, 0));
  FLOWERCDN_ASSIGN_OR_RETURN(script.delay_jitter_ms,
                             GetNumber(root, "delay_jitter_ms", false, 0));
  FLOWERCDN_ASSIGN_OR_RETURN(script.duplicate_rate,
                             GetNumber(root, "duplicate_rate", false, 0));
  if (const JsonValue* actions = root.Find("actions")) {
    if (actions->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument(
          "scenario JSON: \"actions\" must be an array");
    }
    for (const JsonValue& entry : actions->array) {
      FLOWERCDN_ASSIGN_OR_RETURN(ScenarioAction action, ParseAction(entry));
      InsertSorted(script.actions, action);
    }
  }
  FLOWERCDN_RETURN_NOT_OK(script.Validate());
  return script;
}

Result<ScenarioScript> ScenarioScript::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open scenario file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseJson(buffer.str());
}

}  // namespace flowercdn
