/**
 * @file
 * Tests for the observability subsystem: metrics registry semantics
 * (including its hash index under concurrent registration, which the
 * TSan job runs), trace JSON well-formedness, ring-buffer bounding,
 * and the disabled-mode fast path.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "json_checker.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace hydra;
using hydra::testutil::JsonChecker;

namespace {

/** Fresh-state fixture: every test starts with zeroed instruments. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::MetricsRegistry::instance().reset();
        obs::Tracer::instance().disable();
        obs::Tracer::instance().clear();
    }

    void
    TearDown() override
    {
        obs::Tracer::instance().disable();
        obs::MetricsRegistry::instance().reset();
    }
};

} // namespace

// --------------------------------------------------------- counters

TEST_F(ObsTest, CounterAccumulates)
{
    obs::Counter &c = obs::counter("test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.increment();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST_F(ObsTest, SameNameSameHandle)
{
    obs::Counter &a = obs::counter("test.same");
    obs::Counter &b = obs::counter("test.same");
    EXPECT_EQ(&a, &b);
    a.increment();
    EXPECT_EQ(b.value(), 1u);
}

TEST_F(ObsTest, LabelsDistinguishInstruments)
{
    obs::Counter &red = obs::counter("test.labeled", {{"color", "red"}});
    obs::Counter &blue = obs::counter("test.labeled", {{"color", "blue"}});
    EXPECT_NE(&red, &blue);
    red.add(3);
    blue.add(4);
    auto &registry = obs::MetricsRegistry::instance();
    EXPECT_EQ(registry.counterValue("test.labeled", {{"color", "red"}}), 3u);
    EXPECT_EQ(registry.counterTotal("test.labeled"), 7u);
}

TEST_F(ObsTest, LabelOrderDoesNotMatter)
{
    obs::Counter &ab =
        obs::counter("test.order", {{"a", "1"}, {"b", "2"}});
    obs::Counter &ba =
        obs::counter("test.order", {{"b", "2"}, {"a", "1"}});
    EXPECT_EQ(&ab, &ba);
}

TEST_F(ObsTest, ResetZeroesButKeepsHandles)
{
    obs::Counter &c = obs::counter("test.reset");
    c.add(10);
    obs::MetricsRegistry::instance().reset();
    EXPECT_EQ(c.value(), 0u);
    c.increment();
    EXPECT_EQ(obs::MetricsRegistry::instance().counterValue("test.reset"),
              1u);
}

TEST_F(ObsTest, IndexedLookupKeepsHandlesAndRegistrationOrder)
{
    constexpr std::size_t kSeries = 1000;
    auto &registry = obs::MetricsRegistry::instance();
    std::vector<obs::Counter *> handles;
    std::vector<std::string> order;
    for (std::size_t i = 0; i < kSeries; ++i) {
        // 7919 is prime, so this visits every id once, out of order.
        const std::string id = std::to_string(i * 7919 % kSeries);
        order.push_back(id);
        handles.push_back(
            &obs::counter("test.index", {{"id", id}, {"shard", "s" + id}}));
    }
    EXPECT_EQ(std::set<obs::Counter *>(handles.begin(), handles.end()).size(),
              kSeries);
    for (std::size_t i = 0; i < kSeries; ++i) {
        const std::string &id = order[i];
        EXPECT_EQ(&obs::counter("test.index",
                                {{"id", id}, {"shard", "s" + id}}),
                  handles[i]);
        EXPECT_EQ(&obs::counter("test.index",
                                {{"shard", "s" + id}, {"id", id}}),
                  handles[i]);
        handles[i]->add(i + 1);
    }
    EXPECT_EQ(registry.counterValue("test.index",
                                    {{"shard", "s" + order[5]},
                                     {"id", order[5]}}),
              6u);

    // The export walks registration order, not hash or key order.
    auto doc = json::parse(registry.toJson());
    ASSERT_TRUE(doc.ok());
    const json::Value *counters = doc.value().find("counters");
    ASSERT_NE(counters, nullptr);
    std::vector<std::string> exported;
    for (const json::Value &entry : counters->array) {
        if (entry.find("name")->string != "test.index")
            continue;
        exported.push_back(entry.find("labels")->find("id")->string);
    }
    EXPECT_EQ(exported, order);
}

TEST_F(ObsTest, ConcurrentRegistrationYieldsOneHandlePerSeries)
{
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kSeries = 200;
    constexpr std::size_t kStride = 25;
    // Thread t registers series [t * kStride, t * kStride + kSeries):
    // each series is claimed by several threads at once, odd threads
    // with their labels in reverse order.
    std::vector<std::vector<obs::Counter *>> seen(
        kThreads, std::vector<obs::Counter *>(kSeries));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([t, &seen] {
            for (std::size_t j = 0; j < kSeries; ++j) {
                const std::string id = std::to_string(t * kStride + j);
                obs::Labels labels{{"id", id}, {"kind", "race"}};
                if (t % 2)
                    std::swap(labels[0], labels[1]);
                obs::Counter &c = obs::counter("test.index.race", labels);
                c.increment();
                seen[t][j] = &c;
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    std::size_t claims = 0;
    for (std::size_t t = 0; t < kThreads; ++t)
        for (std::size_t j = 0; j < kSeries; ++j) {
            const std::string id = std::to_string(t * kStride + j);
            obs::Counter &c = obs::counter("test.index.race",
                                           {{"id", id}, {"kind", "race"}});
            EXPECT_EQ(seen[t][j], &c) << "thread " << t << " id " << id;
            ++claims;
        }
    EXPECT_EQ(obs::MetricsRegistry::instance().counterTotal(
                  "test.index.race"),
              claims);
}

// ----------------------------------------------------------- gauges

TEST_F(ObsTest, GaugeHoldsLastValue)
{
    obs::Gauge &g = obs::gauge("test.gauge");
    g.set(5.0);
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ------------------------------------------------------- histograms

TEST_F(ObsTest, HistogramSummaries)
{
    obs::Histogram &h = obs::histogram("test.hist");
    h.record(100);
    h.record(200);
    h.record(300);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 600u);
    EXPECT_EQ(h.min(), 100u);
    EXPECT_EQ(h.max(), 300u);
    EXPECT_DOUBLE_EQ(h.mean(), 200.0);
    // Log2 buckets bound percentiles to within the containing bucket,
    // clamped by the observed extrema.
    const double p50 = h.percentile(50.0);
    EXPECT_GE(p50, 100.0);
    EXPECT_LE(p50, 300.0);
}

TEST_F(ObsTest, HistogramEmptyIsSafe)
{
    obs::Histogram &h = obs::histogram("test.hist.empty");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
}

TEST_F(ObsTest, HistogramBucketsAreLogLinear)
{
    obs::Histogram &h = obs::histogram("test.hist.buckets");
    // Linear region: values below 32 land in their own bucket.
    h.record(0);
    h.record(1);
    h.record(7);
    h.record(31);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(7), 1u);
    EXPECT_EQ(h.bucketCount(31), 1u);
    // Log region: each bucket spans [lowerBound, upperBound).
    h.record(100);
    const std::size_t bucket = obs::Histogram::bucketOf(100);
    EXPECT_EQ(h.bucketCount(bucket), 1u);
    EXPECT_LE(obs::Histogram::bucketLowerBound(bucket), 100u);
    EXPECT_GT(obs::Histogram::bucketUpperBound(bucket), 100u);
}

// ------------------------------------------------------ JSON export

TEST_F(ObsTest, MetricsJsonIsWellFormed)
{
    obs::counter("test.json.counter", {{"kind", "a\"b\\c"}}).add(7);
    obs::gauge("test.json.gauge").set(1.25);
    obs::histogram("test.json.hist").record(1000);

    const std::string json = obs::MetricsRegistry::instance().toJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":7"), std::string::npos);
    EXPECT_NE(json.find("\"unit\":\"ns\""), std::string::npos);
}

TEST_F(ObsTest, PrettyTableListsEveryInstrument)
{
    obs::counter("test.table.counter").add(3);
    obs::histogram("test.table.hist").record(50);
    const std::string table =
        obs::MetricsRegistry::instance().prettyTable();
    EXPECT_NE(table.find("test.table.counter"), std::string::npos);
    EXPECT_NE(table.find("test.table.hist"), std::string::npos);
}

// ----------------------------------------------------------- tracer

TEST_F(ObsTest, TraceJsonIsWellFormedChromeSchema)
{
    auto &tracer = obs::Tracer::instance();
    tracer.enable(64);
    const obs::TraceLane lane = tracer.lane("client", "nic");
    tracer.complete(lane, "bus.xfer", "bus", 1000, 500);
    tracer.instant(lane, "drop", "net", 2500);
    tracer.counterSample(lane, "queue", 3000, 4.0);

    std::ostringstream out;
    tracer.writeJson(out);
    const std::string json = out.str();

    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    // Chrome trace_event required fields.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"bus.xfer\""), std::string::npos);
    // Lane metadata for Perfetto track names.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"client\""), std::string::npos);
}

TEST_F(ObsTest, LanesAreInternedStably)
{
    auto &tracer = obs::Tracer::instance();
    tracer.enable(16);
    const obs::TraceLane a1 = tracer.lane("server", "nic");
    const obs::TraceLane a2 = tracer.lane("server", "nic");
    const obs::TraceLane b = tracer.lane("server", "disk");
    const obs::TraceLane c = tracer.lane("client", "nic");
    EXPECT_EQ(a1.pid, a2.pid);
    EXPECT_EQ(a1.tid, a2.tid);
    EXPECT_EQ(a1.pid, b.pid);
    EXPECT_NE(a1.tid, b.tid);
    EXPECT_NE(a1.pid, c.pid);
}

TEST_F(ObsTest, RingBufferOverwritesOldest)
{
    auto &tracer = obs::Tracer::instance();
    tracer.enable(8);
    const obs::TraceLane lane = tracer.lane("p", "t");
    for (int i = 0; i < 20; ++i)
        tracer.instant(lane, std::string("e").append(std::to_string(i)),
                       "test", static_cast<sim::SimTime>(i) * 100);

    EXPECT_EQ(tracer.eventsRecorded(), 8u);
    EXPECT_EQ(tracer.eventsOverwritten(), 12u);

    std::ostringstream out;
    tracer.writeJson(out);
    const std::string json = out.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    // The oldest events are gone, the newest survive.
    EXPECT_EQ(json.find("\"e0\""), std::string::npos);
    EXPECT_NE(json.find("\"e19\""), std::string::npos);
    EXPECT_NE(json.find("\"overwritten\":12"), std::string::npos);
}

TEST_F(ObsTest, DisabledTracerRecordsNothing)
{
    auto &tracer = obs::Tracer::instance();
    ASSERT_FALSE(tracer.enabled());
    EXPECT_FALSE(HYDRA_TRACE_ACTIVE());

    // Macro form: the body must not evaluate when disabled (a build
    // without the tracer drops the macros' arguments unused).
    int evaluations = 0;
    [[maybe_unused]] auto touch = [&]() {
        ++evaluations;
        return tracer.lane("p", "t");
    };
    HYDRA_TRACE_COMPLETE(touch(), "never", "test", 0, 1);
    HYDRA_TRACE_INSTANT(touch(), "never", "test", 0);
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(tracer.eventsRecorded(), 0u);

    // Direct calls while disabled are dropped too.
    tracer.complete(obs::TraceLane{}, "direct", "test", 0, 1);
    EXPECT_EQ(tracer.eventsRecorded(), 0u);
}

TEST_F(ObsTest, EnableResetsRing)
{
    auto &tracer = obs::Tracer::instance();
    tracer.enable(8);
    tracer.instant(tracer.lane("p", "t"), "old", "test", 1);
    EXPECT_EQ(tracer.eventsRecorded(), 1u);
    tracer.enable(8); // re-enable = fresh ring
    EXPECT_EQ(tracer.eventsRecorded(), 0u);
    EXPECT_EQ(tracer.eventsOverwritten(), 0u);
}

TEST_F(ObsTest, RingOverflowCountsDroppedEventsMetric)
{
    auto &tracer = obs::Tracer::instance();
    tracer.enable(4);
    const obs::TraceLane lane = tracer.lane("p", "t");
    for (int i = 0; i < 10; ++i)
        tracer.instant(lane, "e", "test",
                       static_cast<sim::SimTime>(i) * 10);

    // Overflow is visible both on the tracer and as a metric, so a
    // metrics-only consumer still learns the trace was truncated.
    EXPECT_EQ(tracer.eventsOverwritten(), 6u);
    EXPECT_EQ(obs::MetricsRegistry::instance().counterValue(
                  "obs.trace.dropped_events"),
              6u);
}

// ------------------------------------------------------ JSON escaping

TEST_F(ObsTest, MetricsJsonEscapesControlCharactersInLabels)
{
    obs::counter("test.esc", {{"k", "line1\nline2"}}).add(1);
    const std::string json = obs::MetricsRegistry::instance().toJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

// ------------------------------------------------------- pretty table

TEST_F(ObsTest, PrettyTableIsSortedByName)
{
    obs::counter("test.zz.last").add(1);
    obs::counter("test.aa.first").add(1);
    obs::counter("test.mm.middle").add(1);
    const std::string table =
        obs::MetricsRegistry::instance().prettyTable();
    const std::size_t first = table.find("test.aa.first");
    const std::size_t middle = table.find("test.mm.middle");
    const std::size_t last = table.find("test.zz.last");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(middle, std::string::npos);
    ASSERT_NE(last, std::string::npos);
    EXPECT_LT(first, middle);
    EXPECT_LT(middle, last);
}

TEST_F(ObsTest, PrettyTableAlignsValueColumn)
{
    obs::counter("test.align.short").add(1);
    obs::counter("test.align.much-longer-name").add(2);
    const std::string table =
        obs::MetricsRegistry::instance().prettyTable();

    // Every counter row pads the name to a common column, so the
    // value column starts at the same offset on each line.
    std::istringstream lines(table);
    std::string line;
    std::size_t valueColumn = std::string::npos;
    while (std::getline(lines, line)) {
        if (line.find("test.align.") == std::string::npos)
            continue;
        const std::size_t column = line.find_last_of(' ');
        if (valueColumn == std::string::npos)
            valueColumn = column;
        else
            EXPECT_EQ(column, valueColumn) << table;
    }
    EXPECT_NE(valueColumn, std::string::npos);
}
