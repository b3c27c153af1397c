#include "chaos/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace flowercdn {
namespace {

TEST(ScenarioScript, EmptyByDefault) {
  ScenarioScript script;
  EXPECT_TRUE(script.empty());
  EXPECT_TRUE(script.Validate().ok());
}

TEST(ScenarioScript, BuildersKeepTimelineSorted) {
  ScenarioScript script;
  script.AddPartition(0, 1, 8 * kHour, 30 * kMinute)
      .AddKillDirectory(0, 0, 6 * kHour)
      .AddLossRamp(0.01, 10 * kHour, 11 * kHour);
  ASSERT_EQ(script.actions.size(), 3u);
  EXPECT_EQ(script.actions[0].type, ScenarioAction::Type::kKillDirectory);
  EXPECT_EQ(script.actions[1].type, ScenarioAction::Type::kPartition);
  EXPECT_EQ(script.actions[2].type, ScenarioAction::Type::kLossRamp);
  EXPECT_LE(script.actions[0].t, script.actions[1].t);
  EXPECT_LE(script.actions[1].t, script.actions[2].t);
  EXPECT_FALSE(script.empty());
}

TEST(ScenarioScript, LossRampStoresStartAndDuration) {
  ScenarioScript script;
  script.AddLossRamp(0.02, 10 * kHour, 11 * kHour);
  const ScenarioAction& a = script.actions[0];
  EXPECT_EQ(a.t, 10 * kHour);
  EXPECT_EQ(a.duration, 1 * kHour);
  EXPECT_DOUBLE_EQ(a.rate, 0.02);
}

TEST(ScenarioScript, ParseJsonFullSchema) {
  const std::string text = R"({
    "name": "full",
    "loss_rate": 0.01,
    "delay_jitter_ms": 50,
    "duplicate_rate": 0.005,
    "actions": [
      {"type": "kill_directory", "t_min": 360, "website": 2, "locality": 1},
      {"type": "partition", "t_min": 390, "duration_min": 30,
       "loc_a": 0, "loc_b": 1},
      {"type": "loss_ramp", "rate": 0.02, "t0_min": 420, "t1_min": 480},
      {"type": "churn_spike", "t_min": 100, "duration_min": 60,
       "factor": 2.5},
      {"type": "flash_crowd", "t_min": 200, "website": 0, "multiplier": 10}
    ]
  })";
  Result<ScenarioScript> parsed = ScenarioScript::ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ScenarioScript& s = *parsed;
  EXPECT_EQ(s.name, "full");
  EXPECT_DOUBLE_EQ(s.loss_rate, 0.01);
  EXPECT_DOUBLE_EQ(s.delay_jitter_ms, 50);
  EXPECT_DOUBLE_EQ(s.duplicate_rate, 0.005);
  ASSERT_EQ(s.actions.size(), 5u);
  // Sorted by t: spike (100m), crowd (200m), kill (360m), cut, ramp.
  EXPECT_EQ(s.actions[0].type, ScenarioAction::Type::kChurnSpike);
  EXPECT_DOUBLE_EQ(s.actions[0].factor, 2.5);
  EXPECT_EQ(s.actions[0].duration, 60 * kMinute);
  EXPECT_EQ(s.actions[1].type, ScenarioAction::Type::kFlashCrowd);
  EXPECT_EQ(s.actions[1].duration, 0) << "no duration = until run end";
  EXPECT_EQ(s.actions[2].type, ScenarioAction::Type::kKillDirectory);
  EXPECT_EQ(s.actions[2].website, 2u);
  EXPECT_EQ(s.actions[2].loc_a, 1);
  EXPECT_EQ(s.actions[3].type, ScenarioAction::Type::kPartition);
  EXPECT_EQ(s.actions[3].t, 390 * kMinute);
  EXPECT_EQ(s.actions[3].duration, 30 * kMinute);
  EXPECT_EQ(s.actions[4].type, ScenarioAction::Type::kLossRamp);
  EXPECT_EQ(s.actions[4].t, 420 * kMinute);
  EXPECT_EQ(s.actions[4].duration, 60 * kMinute);
}

// Every control character below 0x20, which JSON forbids raw in a string.
std::string AllControlCharacters() {
  std::string s;
  for (char c = 1; c < 0x20; ++c) s.push_back(c);
  return s;
}

TEST(ScenarioScript, ToJsonRoundTrips) {
  for (const std::string& name :
       {std::string("round-trip"), std::string("a\nb\tc"),
        std::string("quote \" and backslash \\"), AllControlCharacters()}) {
    SCOPED_TRACE(name);
    ScenarioScript script;
    script.name = name;
    script.loss_rate = 0.015;
    script.delay_jitter_ms = 25;
    script.AddKillDirectory(3, 2, 6 * kHour)
        .AddPartition(0, 4, 7 * kHour, 45 * kMinute)
        .AddLossRamp(0.03, 8 * kHour, 9 * kHour)
        .AddChurnSpike(1.5, 2 * kHour, 30 * kMinute)
        .AddFlashCrowd(1, 3 * kHour, 8.0, 20 * kMinute);
    const std::string json = script.ToJson();
    // The writer emits valid JSON: no raw control character in a string.
    // The only ones outside strings are the layout's newlines, as many as
    // a script with a plain name has.
    for (char c : json) {
      EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
          << "raw control character " << static_cast<int>(c);
    }
    ScenarioScript plain = script;
    plain.name = "plain";
    const std::string plain_json = plain.ToJson();
    EXPECT_EQ(std::count(json.begin(), json.end(), '\n'),
              std::count(plain_json.begin(), plain_json.end(), '\n'));
    Result<ScenarioScript> back = ScenarioScript::ParseJson(json);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->name, script.name);
    EXPECT_DOUBLE_EQ(back->loss_rate, script.loss_rate);
    EXPECT_DOUBLE_EQ(back->delay_jitter_ms, script.delay_jitter_ms);
    EXPECT_DOUBLE_EQ(back->duplicate_rate, script.duplicate_rate);
    ASSERT_EQ(back->actions.size(), script.actions.size());
    for (size_t i = 0; i < script.actions.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(back->actions[i].type, script.actions[i].type);
      EXPECT_EQ(back->actions[i].t, script.actions[i].t);
      EXPECT_EQ(back->actions[i].duration, script.actions[i].duration);
      EXPECT_EQ(back->actions[i].website, script.actions[i].website);
      EXPECT_EQ(back->actions[i].loc_a, script.actions[i].loc_a);
      EXPECT_EQ(back->actions[i].loc_b, script.actions[i].loc_b);
      EXPECT_DOUBLE_EQ(back->actions[i].rate, script.actions[i].rate);
      EXPECT_DOUBLE_EQ(back->actions[i].factor, script.actions[i].factor);
    }
    // Canonical form is a fixed point: serialize(parse(serialize(x))) is
    // byte-identical — the CI determinism check depends on this.
    EXPECT_EQ(back->ToJson(), json);
  }
}

TEST(ScenarioScript, UnknownTopLevelKeyRejected) {
  Result<ScenarioScript> r =
      ScenarioScript::ParseJson(R"({"name": "x", "loss": 0.5})");
  EXPECT_FALSE(r.ok());
}

TEST(ScenarioScript, UnknownActionKeyRejected) {
  Result<ScenarioScript> r = ScenarioScript::ParseJson(
      R"({"actions": [{"type": "kill_directory", "t_min": 1,
          "website": 0, "locality": 0, "speed": 9}]})");
  EXPECT_FALSE(r.ok()) << "typos must fail loudly";
}

TEST(ScenarioScript, UnknownActionTypeRejected) {
  Result<ScenarioScript> r = ScenarioScript::ParseJson(
      R"({"actions": [{"type": "meteor_strike", "t_min": 1}]})");
  EXPECT_FALSE(r.ok());
}

TEST(ScenarioScript, MalformedJsonRejected) {
  EXPECT_FALSE(ScenarioScript::ParseJson("").ok());
  EXPECT_FALSE(ScenarioScript::ParseJson("{").ok());
  EXPECT_FALSE(ScenarioScript::ParseJson(R"({"name": "x"} trailing)").ok());
  EXPECT_FALSE(ScenarioScript::ParseJson(R"({"name": 5})").ok());
  // JSON forbids raw control characters in a string; \u escapes are four
  // hex digits of an ASCII character.
  EXPECT_FALSE(ScenarioScript::ParseJson("{\"name\": \"a\nb\"}").ok());
  EXPECT_FALSE(ScenarioScript::ParseJson("{\"name\": \"a\tb\"}").ok());
  EXPECT_FALSE(ScenarioScript::ParseJson(R"({"name": "\u00"})").ok());
  EXPECT_FALSE(ScenarioScript::ParseJson(R"({"name": "\u00zz"})").ok());
  EXPECT_FALSE(ScenarioScript::ParseJson(R"({"name": "\u00e9"})").ok());
}

TEST(ScenarioScript, ValidateRejectsOutOfRangeRates) {
  ScenarioScript script;
  script.loss_rate = 1.5;
  EXPECT_FALSE(script.Validate().ok());

  ScenarioScript ramp;
  ramp.AddLossRamp(2.0, kHour, 2 * kHour);
  EXPECT_FALSE(ramp.Validate().ok());

  ScenarioScript spike;
  spike.AddChurnSpike(0.0, kHour, kHour);
  EXPECT_FALSE(spike.Validate().ok());
}

TEST(ScenarioScript, ValidateRejectsSelfPartition) {
  ScenarioScript script;
  script.AddPartition(2, 2, kHour, kMinute);
  EXPECT_FALSE(script.Validate().ok());
}

TEST(ScenarioScript, ParseRejectsInvalidRanges) {
  Result<ScenarioScript> r = ScenarioScript::ParseJson(
      R"({"actions": [{"type": "loss_ramp", "rate": 3.0,
          "t0_min": 1, "t1_min": 2}]})");
  EXPECT_FALSE(r.ok()) << "parse must run Validate()";
}

// Scenario numbers follow the CLI's rules: times are finite minutes in
// [0, kMaxScenarioMinutes], websites and localities non-negative integers.
// Each of these used to run (or hit undefined behaviour) instead.
Status ParseAction(const std::string& action) {
  return ScenarioScript::ParseJson(R"({"actions": [)" + action + "]}")
      .status();
}

TEST(ScenarioScript, TimeOutOfRangeRejected) {
  // llround of 6e304 ms.
  EXPECT_FALSE(ParseAction(R"({"type": "kill_directory", "t_min": 1e300,
      "website": 0, "locality": 0})").ok());
  // t1 - t0 overflowed the signed subtraction.
  EXPECT_FALSE(ParseAction(R"({"type": "loss_ramp", "rate": 0.1,
      "t0_min": -1e300, "t1_min": 10})").ok());
  // Infinity parses as a number.
  EXPECT_FALSE(ParseAction(R"({"type": "churn_spike", "factor": 2,
      "t_min": 1, "duration_min": 1e400})").ok());
  EXPECT_FALSE(ParseAction(R"({"type": "partition", "loc_a": 0, "loc_b": 1,
      "t_min": -1, "duration_min": 10})").ok());
  EXPECT_TRUE(ParseAction(R"({"type": "flash_crowd", "website": 0,
      "multiplier": 2, "t_min": 1000000})").ok());
  EXPECT_FALSE(ParseAction(R"({"type": "flash_crowd", "website": 0,
      "multiplier": 2, "t_min": 1000001})").ok());
}

TEST(ScenarioScript, WebsiteMustBeNonNegativeInteger) {
  // -1 used to run as website 4294967295, 2.7 as website 2.
  Status negative = ParseAction(R"({"type": "kill_directory", "t_min": 1,
      "website": -1, "locality": 0})");
  EXPECT_FALSE(negative.ok());
  EXPECT_NE(negative.message().find("\"website\" must be a non-negative "
                                    "integer"),
            std::string::npos)
      << negative.message();
  EXPECT_FALSE(ParseAction(R"({"type": "kill_directory", "t_min": 1,
      "website": 2.7, "locality": 0})").ok());
  EXPECT_FALSE(ParseAction(R"({"type": "flash_crowd", "website": 1e12,
      "multiplier": 2, "t_min": 1})").ok());
}

TEST(ScenarioScript, LocalityMustBeNonNegativeInteger) {
  EXPECT_FALSE(ParseAction(R"({"type": "kill_directory", "t_min": 1,
      "website": 0, "locality": -1})").ok());
  EXPECT_FALSE(ParseAction(R"({"type": "partition", "loc_a": 0.5,
      "loc_b": 1, "t_min": 1, "duration_min": 1})").ok());
  EXPECT_FALSE(ParseAction(R"({"type": "partition", "loc_a": 0,
      "loc_b": 3e9, "t_min": 1, "duration_min": 1})").ok());
}

TEST(ScenarioScript, CheckWebsitesBindsToTheCatalog) {
  ScenarioScript script;
  script.AddKillDirectory(2, 0, kHour);
  EXPECT_TRUE(script.CheckWebsites(3).ok());
  EXPECT_FALSE(script.CheckWebsites(2).ok());

  ScenarioScript crowd;
  crowd.AddFlashCrowd(5, kHour, 2.0);
  EXPECT_FALSE(crowd.CheckWebsites(5).ok());
  EXPECT_TRUE(crowd.CheckWebsites(6).ok());

  // Actions that name no website pass whatever their other fields hold.
  ScenarioScript partition;
  partition.AddPartition(0, 9, kHour, kMinute);
  EXPECT_TRUE(partition.CheckWebsites(1).ok());
}

TEST(ScenarioScript, LoadFileMissingIsError) {
  Result<ScenarioScript> r =
      ScenarioScript::LoadFile("/nonexistent/scenario.json");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace flowercdn
