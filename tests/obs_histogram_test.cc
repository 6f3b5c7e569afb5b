/**
 * @file
 * Unit tests for the HDR-style log-linear histogram (DESIGN.md §11):
 * bucket boundary invariants, merge associativity, percentile
 * accuracy against an exact sort, overflow accounting, and a
 * multi-thread stress test that the sanitizer job runs under TSAN.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/histogram.hh"
#include "obs/metrics.hh"

using namespace hydra;
using obs::Histogram;

namespace {

/** Deterministic value stream (splitmix64). */
std::uint64_t
mix(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

class HistogramTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::MetricsRegistry::instance().reset(); }
};

// ------------------------------------------------- bucket boundaries

TEST_F(HistogramTest, LinearRegionIsExact)
{
    for (std::uint64_t v = 0; v < Histogram::kLinearBuckets; ++v) {
        EXPECT_EQ(Histogram::bucketOf(v), v);
        EXPECT_EQ(Histogram::bucketLowerBound(v), v);
        EXPECT_EQ(Histogram::bucketUpperBound(v), v + 1);
    }
}

TEST_F(HistogramTest, EveryValueFallsInsideItsBucketBounds)
{
    // Sweep powers of two and their neighbors across the full range.
    std::vector<std::uint64_t> probes = {0, 1, 31, 32, 33, 100, 1000};
    for (std::size_t shift = 6; shift < Histogram::kMaxOrder; ++shift) {
        const std::uint64_t p = 1ull << shift;
        probes.push_back(p - 1);
        probes.push_back(p);
        probes.push_back(p + 1);
        probes.push_back(p + p / 3);
    }
    for (std::uint64_t v : probes) {
        const std::size_t bucket = Histogram::bucketOf(v);
        ASSERT_LT(bucket, Histogram::kOverflowBucket) << v;
        EXPECT_LE(Histogram::bucketLowerBound(bucket), v) << v;
        EXPECT_GT(Histogram::bucketUpperBound(bucket), v) << v;
    }
}

TEST_F(HistogramTest, BucketIndexIsMonotoneAndContiguous)
{
    // Consecutive buckets tile the range with no gaps or overlaps.
    for (std::size_t b = 0; b + 1 < Histogram::kOverflowBucket; ++b) {
        ASSERT_EQ(Histogram::bucketUpperBound(b),
                  Histogram::bucketLowerBound(b + 1))
            << "gap after bucket " << b;
    }
    // Bucket width never exceeds the 1/kSubBuckets relative bound.
    for (std::size_t b = Histogram::kLinearBuckets;
         b < Histogram::kOverflowBucket; ++b) {
        const std::uint64_t lo = Histogram::bucketLowerBound(b);
        const std::uint64_t width = Histogram::bucketUpperBound(b) - lo;
        EXPECT_LE(width * Histogram::kSubBuckets, lo)
            << "bucket " << b << " too wide";
    }
}

TEST_F(HistogramTest, OutOfRangeLandsInOverflowBucket)
{
    EXPECT_EQ(Histogram::bucketOf(1ull << Histogram::kMaxOrder),
              Histogram::kOverflowBucket);
    EXPECT_EQ(Histogram::bucketOf(UINT64_MAX),
              Histogram::kOverflowBucket);
    // Largest in-range value still maps below the overflow bucket.
    EXPECT_LT(Histogram::bucketOf((1ull << Histogram::kMaxOrder) - 1),
              Histogram::kOverflowBucket);
}

// -------------------------------------------------- basic recording

TEST_F(HistogramTest, CountSumMinMaxMean)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);

    h.record(10);
    h.record(20);
    h.record(60);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 90u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 60u);
    EXPECT_DOUBLE_EQ(h.mean(), 30.0);
}

TEST_F(HistogramTest, OverflowSamplesAreCountedAndReported)
{
    obs::MetricsRegistry::instance().reset();
    Histogram h;
    h.record(1ull << 50);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(obs::counter("obs.sample.dropped").value(), 1u);
    const obs::HistogramSummary s = h.summary();
    EXPECT_EQ(s.overflow, 1u);
}

TEST_F(HistogramTest, ResetZeroesEverything)
{
    Histogram h;
    h.record(5);
    h.record(5000);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.overflowCount(), 0u);
}

// ------------------------------------------------------------ merge

TEST_F(HistogramTest, MergeIsAssociative)
{
    std::uint64_t seed = 42;
    Histogram a1, b1, c1, a2, b2, c2;
    auto fill = [&](Histogram &first, Histogram &second,
                    std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t v = mix(seed) >> 20; // ~0..2^44
            first.record(v);
            second.record(v);
        }
    };
    // Identical streams into two independent copies of (a, b, c).
    fill(a1, a2, 500);
    fill(b1, b2, 300);
    fill(c1, c2, 200);

    // (a ∪ b) ∪ c
    a1.merge(b1);
    a1.merge(c1);
    // a ∪ (b ∪ c)
    b2.merge(c2);
    a2.merge(b2);

    EXPECT_EQ(a1.count(), a2.count());
    EXPECT_EQ(a1.sum(), a2.sum());
    EXPECT_EQ(a1.min(), a2.min());
    EXPECT_EQ(a1.max(), a2.max());
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
        ASSERT_EQ(a1.bucketCount(b), a2.bucketCount(b)) << b;
}

TEST_F(HistogramTest, MergeWithEmptyIsIdentity)
{
    Histogram a, empty;
    a.record(100);
    a.record(7);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 7u);
    EXPECT_EQ(a.max(), 100u);
}

// ------------------------------------------------------ percentiles

TEST_F(HistogramTest, PercentileMatchesExactSortWithinBucketError)
{
    std::uint64_t seed = 7;
    Histogram h;
    std::vector<std::uint64_t> exact;
    for (std::size_t i = 0; i < 10000; ++i) {
        // Mix of magnitudes: microseconds to tens of milliseconds.
        const std::uint64_t v = (mix(seed) % 50'000'000) + 1000;
        h.record(v);
        exact.push_back(v);
    }
    std::sort(exact.begin(), exact.end());

    for (double pct : {50.0, 90.0, 99.0, 99.9}) {
        const std::size_t rank = std::min(
            exact.size() - 1,
            static_cast<std::size_t>(pct / 100.0 * exact.size()));
        const double truth = static_cast<double>(exact[rank]);
        const double approx = h.percentile(pct);
        // Bucket relative width is 1/kSubBuckets; allow 2 bucket
        // widths for interpolation and rank rounding.
        const double bound = 2.0 * truth / Histogram::kSubBuckets;
        EXPECT_NEAR(approx, truth, bound) << "p" << pct;
    }
}

TEST_F(HistogramTest, PercentilesClampToObservedRange)
{
    Histogram h;
    h.record(1000);
    h.record(2000);
    EXPECT_GE(h.percentile(0.0), 1000.0);
    EXPECT_LE(h.percentile(100.0), 2000.0);
    EXPECT_EQ(h.percentile(50.0), h.summary().p50);
}

TEST_F(HistogramTest, SummaryAgreesWithAccessors)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.record(v * 10);
    const obs::HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, h.count());
    EXPECT_EQ(s.sum, h.sum());
    EXPECT_EQ(s.min, h.min());
    EXPECT_EQ(s.max, h.max());
    EXPECT_DOUBLE_EQ(s.mean, h.mean());
    EXPECT_GT(s.p999, 0.0);
    EXPECT_LE(s.p50, s.p90);
    EXPECT_LE(s.p90, s.p99);
    EXPECT_LE(s.p99, s.p999);
}

// ------------------------------------------- concurrency (TSAN job)

TEST_F(HistogramTest, ConcurrentRecordersLoseNothing)
{
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 100'000;
    Histogram h;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t]() {
            std::uint64_t seed = 0x1234 + t;
            for (std::size_t i = 0; i < kPerThread; ++i)
                h.record(mix(seed) % 1'000'000);
        });
    }
    // Concurrent readers must be safe (possibly torn, never UB).
    std::uint64_t observed = 0;
    while (observed < kThreads * kPerThread / 2) {
        observed = h.count();
        (void)h.summary();
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    EXPECT_LT(h.max(), 1'000'000u);
}

/**
 * K threads, the owner among them, write one Counter and one
 * Histogram. The main thread writes first, so it owns the inline
 * cells; the others add into the shared cells. Thread t records
 * 1 + t + K*i, so together they record 1..K*N once each: the owner
 * holds the minimum and another thread the maximum.
 */
TEST_F(HistogramTest, OwnerAndOtherThreadsLoseNothing)
{
    constexpr std::uint64_t kThreads = 4;
    constexpr std::uint64_t kPerThread = 50'000;
    Histogram h;
    obs::Counter counter;
    auto work = [&](std::uint64_t t, std::uint64_t from) {
        for (std::uint64_t i = from; i < kPerThread; ++i) {
            h.record(1 + t + kThreads * i);
            counter.increment();
        }
    };
    h.record(1); // thread 0's first value claims both instruments
    counter.increment();
    std::vector<std::thread> threads;
    for (std::uint64_t t = 1; t < kThreads; ++t)
        threads.emplace_back(work, t, 0);
    work(0, 1); // the owner's writes race the others'
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), kThreads * kPerThread);
    Histogram reference;
    for (std::uint64_t v = 1; v <= kThreads * kPerThread; ++v)
        reference.record(v);
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
        ASSERT_EQ(h.bucketCount(b), reference.bucketCount(b)) << b;
}

TEST_F(HistogramTest, MergeAndResetCoverBothCells)
{
    Histogram a;
    obs::Counter counter;
    a.record(50); // this thread owns a's inline cell
    counter.add(3);
    std::thread([&] {
        a.record(7); // the shared cell
        a.record(900);
        counter.add(4);
    }).join();
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.min(), 7u);
    EXPECT_EQ(a.max(), 900u);
    EXPECT_EQ(counter.value(), 7u);

    // Merging reads both of a's cells, into the merging thread's cell.
    Histogram owned;
    owned.merge(a);
    EXPECT_EQ(owned.count(), 3u);
    EXPECT_EQ(owned.min(), 7u);
    EXPECT_EQ(owned.max(), 900u);
    Histogram shared;
    shared.record(2000); // owned by this thread
    std::thread([&] { shared.merge(a); }).join();
    EXPECT_EQ(shared.count(), 4u);
    EXPECT_EQ(shared.min(), 7u);
    EXPECT_EQ(shared.max(), 2000u);
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
        ASSERT_EQ(shared.bucketCount(b),
                  owned.bucketCount(b) +
                      (b == Histogram::bucketOf(2000) ? 1u : 0u))
            << b;

    // Reset clears both cells; both writers keep their cells after.
    a.reset();
    counter.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.min(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_EQ(counter.value(), 0u);
    a.record(30);
    std::thread([&] {
        a.record(20);
        counter.increment();
    }).join();
    counter.increment();
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 20u);
    EXPECT_EQ(a.max(), 30u);
    EXPECT_EQ(counter.value(), 2u);
}

TEST_F(HistogramTest, EmptyHistogramPercentilesAreZero)
{
    // The SLO engine and report printers probe percentiles before a
    // series records anything; an empty series must answer 0, not
    // garbage from uninitialized min/max bookkeeping.
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(50.0), 0.0);
    EXPECT_EQ(h.percentile(99.0), 0.0);
    EXPECT_EQ(h.percentile(100.0), 0.0);
    const obs::HistogramSummary summary = h.summary();
    EXPECT_EQ(summary.count, 0u);
    EXPECT_EQ(summary.p50, 0.0);
    EXPECT_EQ(summary.p999, 0.0);
}

TEST_F(HistogramTest, SingleSamplePercentilesCollapseToIt)
{
    Histogram h;
    h.record(777);
    EXPECT_EQ(h.percentile(0.0), 777.0);
    EXPECT_EQ(h.percentile(50.0), 777.0);
    EXPECT_EQ(h.percentile(99.0), 777.0);
    EXPECT_EQ(h.percentile(100.0), 777.0);
    const obs::HistogramSummary summary = h.summary();
    EXPECT_EQ(summary.count, 1u);
    EXPECT_EQ(summary.p50, 777.0);
    EXPECT_EQ(summary.max, 777u);
}

} // namespace
