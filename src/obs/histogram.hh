/**
 * @file
 * HDR-style latency histogram (DESIGN.md §11 "Telemetry engine").
 *
 * Fixed-memory log-linear bucketing: values below kLinearBuckets are
 * counted exactly (one bucket per nanosecond), and every power-of-two
 * octave above that is split into kSubBuckets linear sub-buckets, so
 * the relative bucket width — and therefore the worst-case percentile
 * error — is bounded by 1/kSubBuckets (~3%) across the whole range.
 * Values at or above 2^kMaxOrder land in a dedicated overflow bucket
 * and bump the process-wide `obs.sample.dropped` counter (mirroring
 * `obs.trace.dropped_events`), so out-of-range samples are visible
 * instead of silently clamped.
 *
 * record() takes no lock and, on the owning thread, no locked
 * instruction: writes go through owner-thread cells (owner.hh). The
 * first thread to record owns an inline cell and bumps its bucket and
 * min/max with relaxed loads and stores; any other thread records into
 * a shared cell of atomics (fetch_add on the bucket, CAS on min/max),
 * allocated on the first such write. Count and sum are derived by
 * walking both cells' bucket arrays at read time: count is exact, sum
 * uses each bucket's midpoint (exact below 64 ns, within the bucket
 * error bound above). Concurrent readers see a possibly-torn but
 * monotone view, the same contract the rest of the metrics registry
 * offers; reset() only while no thread records. Histograms are
 * mergeable bucket-wise, which the flight recorder and future
 * sharded-fleet work rely on.
 */

#ifndef HYDRA_OBS_HISTOGRAM_HH
#define HYDRA_OBS_HISTOGRAM_HH

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "obs/owner.hh"

namespace hydra::obs {

/** Read-time digest of a histogram (one flight-recorder cell). */
struct HistogramSummary
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /** Samples that fell past the trackable range. */
    std::uint64_t overflow = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

class Histogram
{
  public:
    /** Linear region: values 0..31 each get their own bucket. */
    static constexpr std::size_t kLinearBuckets = 32;
    /** Sub-buckets per octave above the linear region (2^5). */
    static constexpr std::size_t kSubBuckets = 32;
    /** Largest trackable bit-width: values < 2^46 ns (~20 h). */
    static constexpr std::size_t kMaxOrder = 46;
    /** Octaves above the linear region. */
    static constexpr std::size_t kOctaves = kMaxOrder - 5;
    /** Index of the overflow bucket. */
    static constexpr std::size_t kOverflowBucket =
        kLinearBuckets + kOctaves * kSubBuckets;
    static constexpr std::size_t kBuckets = kOverflowBucket + 1;

    /** Bucket index for a value (kOverflowBucket when out of range). */
    static constexpr std::size_t
    bucketOf(std::uint64_t value)
    {
        if (value < kLinearBuckets)
            return static_cast<std::size_t>(value);
        const auto order =
            static_cast<std::size_t>(std::bit_width(value));
        if (order > kMaxOrder)
            return kOverflowBucket;
        // order >= 6 here: shift the value down so it lands in
        // [kSubBuckets, 2*kSubBuckets) and index linearly within the
        // octave.
        const std::size_t octave = order - 6;
        const auto sub =
            static_cast<std::size_t>(value >> octave) - kSubBuckets;
        return kLinearBuckets + octave * kSubBuckets + sub;
    }

    /** Inclusive lower bound of a bucket's value range. */
    static std::uint64_t bucketLowerBound(std::size_t bucket);
    /** Exclusive upper bound of a bucket's value range. */
    static std::uint64_t bucketUpperBound(std::size_t bucket);

    Histogram() = default;
    ~Histogram();
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /**
     * Record one sample. Defined inline: this is the call every
     * instrumented delivery and dispatch site makes, gated at ~15 ns
     * by check.sh. The owner pays one bucket load+store and two
     * compares; other threads take the out-of-line shared path.
     */
    void
    record(std::uint64_t nanos)
    {
        const std::size_t bucket = bucketOf(nanos);
        if (owner_.held()) [[likely]] {
            addOwned(owned_.buckets[bucket], 1);
            if (nanos < owned_.min.load(std::memory_order_relaxed))
                owned_.min.store(nanos, std::memory_order_relaxed);
            if (nanos > owned_.max.load(std::memory_order_relaxed))
                owned_.max.store(nanos, std::memory_order_relaxed);
        } else {
            recordShared(bucket, nanos);
        }
        if (bucket == kOverflowBucket) [[unlikely]]
            recordOverflow();
    }

    /** Fold another histogram into this one, bucket-wise. */
    void merge(const Histogram &other);

    /** Total samples (derived: sums the bucket array; exact). */
    std::uint64_t count() const;
    /**
     * Sum of samples, derived from bucket midpoints: exact for values
     * below 64, within the bucket error bound (~1.6%) above it.
     */
    std::uint64_t sum() const;
    std::uint64_t min() const;
    std::uint64_t max() const;
    double mean() const;
    /** Samples routed to the overflow bucket. */
    std::uint64_t overflowCount() const;
    /**
     * Percentile in [0, 100] via linear interpolation inside the
     * containing bucket; relative error <= 1/kSubBuckets. 0 if empty.
     */
    double percentile(double pct) const;
    std::uint64_t bucketCount(std::size_t bucket) const;

    /** One consistent-enough digest (count/min/max/percentiles). */
    HistogramSummary summary() const;

    void reset();

  private:
    /** One writer side's state: a bucket array plus min/max. */
    struct Cell
    {
        std::atomic<std::uint64_t> min{UINT64_MAX};
        std::atomic<std::uint64_t> max{0};
        std::atomic<std::uint64_t> buckets[kBuckets] = {};

        /** Add @p n samples to @p bucket and widen min/max to
         * [lo, hi] with atomic read-modify-writes. */
        void add(std::size_t bucket, std::uint64_t n, std::uint64_t lo,
                 std::uint64_t hi);
        void reset();
    };

    /** Non-owner record: into the shared cell, allocating it once. */
    void recordShared(std::size_t bucket, std::uint64_t nanos);
    /** The shared cell, allocated on first use by a non-owner. */
    Cell &sharedCell();
    /** Cold path: bump `obs.sample.dropped` (kept out of line so the
     * header needn't see the registry). */
    void recordOverflow();

    OwnerThread owner_;
    Cell owned_;
    std::atomic<Cell *> shared_{nullptr};
};

} // namespace hydra::obs

#endif // HYDRA_OBS_HISTOGRAM_HH
