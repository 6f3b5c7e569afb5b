/**
 * @file
 * SLO watchdog: spec parsing (including rejection of malformed
 * rules), each rule kind's evaluation semantics, the monotonic-clock
 * guard, and the report/JSON surfaces.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "common/time.hh"

using namespace hydra;
using namespace hydra::obs;

namespace {

class SloTest : public ::testing::Test
{
  protected:
    void SetUp() override { SloEngine::instance().clear(); }
    void TearDown() override { SloEngine::instance().clear(); }
};

} // namespace

TEST_F(SloTest, RejectsMalformedSpecs)
{
    SloEngine &engine = SloEngine::instance();
    EXPECT_FALSE(engine.loadSpec("not json"));
    EXPECT_FALSE(engine.loadSpec("{}")); // no "rules"
    EXPECT_FALSE(engine.loadSpec(R"({"rules": 5})"));
    // A rule must target exactly one instrument kind.
    EXPECT_FALSE(engine.loadSpec(
        R"({"rules":[{"histogram":"a","counter":"b","max":1}]})"));
    EXPECT_FALSE(engine.loadSpec(R"({"rules":[{"max":1}]})"));
    // Percentile must be in (0, 100].
    EXPECT_FALSE(engine.loadSpec(
        R"({"rules":[{"histogram":"a","percentile":0,"max":1}]})"));
    EXPECT_FALSE(engine.loadSpec(
        R"({"rules":[{"histogram":"a","percentile":101,"max":1}]})"));
    // Histogram needs max, counter needs max_rate_per_s, gauge needs
    // at least one bound.
    EXPECT_FALSE(engine.loadSpec(R"({"rules":[{"histogram":"a"}]})"));
    EXPECT_FALSE(engine.loadSpec(R"({"rules":[{"counter":"a"}]})"));
    EXPECT_FALSE(engine.loadSpec(R"({"rules":[{"gauge":"a"}]})"));
    // Malformed display key.
    EXPECT_FALSE(engine.loadSpec(
        R"({"rules":[{"histogram":"a{bad","max":1}]})"));
    EXPECT_FALSE(engine.hasRules());
}

TEST_F(SloTest, HistogramPercentileRule)
{
    Histogram &hist =
        obs::histogram("slo.test_latency", {{"case", "p99"}});
    for (int i = 0; i < 100; ++i)
        hist.record(1000);
    hist.record(100000); // the tail sample that busts the budget

    SloEngine &engine = SloEngine::instance();
    ASSERT_TRUE(engine.loadSpec(R"({"rules":[{
        "name": "latency-budget",
        "histogram": "slo.test_latency{case=p99}",
        "percentile": 99.9,
        "max": 50000}]})"));

    const std::uint64_t before =
        MetricsRegistry::instance().counterValue(
            "obs.slo.violations", {{"rule", "latency-budget"}});
    engine.evaluate(sim::seconds(1));
    EXPECT_EQ(engine.violationsTotal(), 1u);
    EXPECT_EQ(MetricsRegistry::instance().counterValue(
                  "obs.slo.violations", {{"rule", "latency-budget"}}),
              before + 1);

    // Each advancing evaluation re-judges the rule.
    engine.evaluate(sim::seconds(2));
    EXPECT_EQ(engine.violationsTotal(), 2u);
}

TEST_F(SloTest, EmptyHistogramIsSkipped)
{
    obs::histogram("slo.test_empty", {{"case", "empty"}});
    SloEngine &engine = SloEngine::instance();
    ASSERT_TRUE(engine.loadSpec(R"({"rules":[{
        "histogram": "slo.test_empty{case=empty}",
        "max": 1}]})"));
    engine.evaluate(sim::seconds(1));
    EXPECT_EQ(engine.violationsTotal(), 0u);
}

TEST_F(SloTest, CounterRatePrimesThenFires)
{
    Counter &events = obs::counter("slo.test_events", {{"case", "rate"}});
    SloEngine &engine = SloEngine::instance();
    ASSERT_TRUE(engine.loadSpec(R"({"rules":[{
        "name": "event-rate",
        "counter": "slo.test_events{case=rate}",
        "max_rate_per_s": 10}]})"));

    // First evaluation primes the baseline, whatever the count.
    events.add(1000000);
    engine.evaluate(sim::seconds(1));
    EXPECT_EQ(engine.violationsTotal(), 0u);

    // 5 events over 1 s: under the 10/s bound.
    events.add(5);
    engine.evaluate(sim::seconds(2));
    EXPECT_EQ(engine.violationsTotal(), 0u);

    // 100 events over 1 s: over the bound.
    events.add(100);
    engine.evaluate(sim::seconds(3));
    EXPECT_EQ(engine.violationsTotal(), 1u);
}

TEST_F(SloTest, GaugeBounds)
{
    Gauge &level = obs::gauge("slo.test_level", {{"case", "bounds"}});
    SloEngine &engine = SloEngine::instance();
    ASSERT_TRUE(engine.loadSpec(R"({"rules":[{
        "name": "level-band",
        "gauge": "slo.test_level{case=bounds}",
        "min": 0.25, "max": 0.75}]})"));

    level.set(0.5);
    engine.evaluate(sim::seconds(1));
    EXPECT_EQ(engine.violationsTotal(), 0u);

    level.set(0.9); // above max
    engine.evaluate(sim::seconds(2));
    EXPECT_EQ(engine.violationsTotal(), 1u);

    level.set(0.1); // below min
    engine.evaluate(sim::seconds(3));
    EXPECT_EQ(engine.violationsTotal(), 2u);
}

TEST_F(SloTest, NonAdvancingClockIsNoop)
{
    Gauge &level = obs::gauge("slo.test_level", {{"case", "mono"}});
    level.set(1.0);
    SloEngine &engine = SloEngine::instance();
    ASSERT_TRUE(engine.loadSpec(R"({"rules":[{
        "gauge": "slo.test_level{case=mono}",
        "max": 0.5}]})"));

    engine.evaluate(sim::seconds(1));
    engine.evaluate(sim::seconds(1)); // coinciding periodics
    engine.evaluate(sim::milliseconds(500));
    EXPECT_EQ(engine.violationsTotal(), 1u);
}

TEST_F(SloTest, ReportAndJsonNameEveryRule)
{
    Gauge &level = obs::gauge("slo.test_level", {{"case", "report"}});
    level.set(0.9);
    SloEngine &engine = SloEngine::instance();
    ASSERT_TRUE(engine.loadSpec(R"({"rules":[{
        "name": "report-rule",
        "gauge": "slo.test_level{case=report}",
        "max": 0.5}]})"));
    engine.evaluate(sim::seconds(1));

    const std::string report = engine.report();
    EXPECT_NE(report.find("report-rule"), std::string::npos) << report;
    EXPECT_NE(report.find("VIOLATED"), std::string::npos) << report;

    const std::string json = engine.toJson();
    EXPECT_NE(json.find("\"report-rule\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"total_violations\":1"), std::string::npos)
        << json;
}

TEST_F(SloTest, DefaultRuleNamesAreIndexed)
{
    SloEngine &engine = SloEngine::instance();
    ASSERT_TRUE(engine.loadSpec(R"({"rules":[
        {"gauge": "slo.test_level{case=anon}", "max": 1},
        {"gauge": "slo.test_level{case=anon}", "min": 0}]})"));
    EXPECT_EQ(engine.ruleCount(), 2u);
    EXPECT_NE(engine.toJson().find("rule-0"), std::string::npos);
    EXPECT_NE(engine.toJson().find("rule-1"), std::string::npos);
}
