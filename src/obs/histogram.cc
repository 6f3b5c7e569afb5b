#include "obs/histogram.hh"

#include <algorithm>
#include <bit>

#include "obs/metrics.hh"

namespace hydra::obs {

std::uint64_t
Histogram::bucketLowerBound(std::size_t bucket)
{
    if (bucket < kLinearBuckets)
        return bucket;
    if (bucket >= kOverflowBucket)
        return std::uint64_t{1} << kMaxOrder;
    const std::size_t octave = (bucket - kLinearBuckets) / kSubBuckets;
    const std::size_t sub = (bucket - kLinearBuckets) % kSubBuckets;
    return static_cast<std::uint64_t>(kSubBuckets + sub) << octave;
}

std::uint64_t
Histogram::bucketUpperBound(std::size_t bucket)
{
    if (bucket < kLinearBuckets)
        return bucket + 1;
    if (bucket >= kOverflowBucket)
        return UINT64_MAX;
    const std::size_t octave = (bucket - kLinearBuckets) / kSubBuckets;
    const std::size_t sub = (bucket - kLinearBuckets) % kSubBuckets;
    return static_cast<std::uint64_t>(kSubBuckets + sub + 1) << octave;
}

Histogram::~Histogram()
{
    delete shared_.load(std::memory_order_acquire);
}

void
Histogram::recordOverflow()
{
    static Counter &dropped = counter("obs.sample.dropped");
    dropped.increment();
}

void
Histogram::Cell::add(std::size_t bucket, std::uint64_t n, std::uint64_t lo,
                     std::uint64_t hi)
{
    buckets[bucket].fetch_add(n, std::memory_order_relaxed);
    std::uint64_t seen = min.load(std::memory_order_relaxed);
    while (lo < seen &&
           !min.compare_exchange_weak(seen, lo, std::memory_order_relaxed)) {
    }
    seen = max.load(std::memory_order_relaxed);
    while (hi > seen &&
           !max.compare_exchange_weak(seen, hi, std::memory_order_relaxed)) {
    }
}

void
Histogram::Cell::reset()
{
    min.store(UINT64_MAX, std::memory_order_relaxed);
    max.store(0, std::memory_order_relaxed);
    for (auto &bucket : buckets)
        bucket.store(0, std::memory_order_relaxed);
}

Histogram::Cell &
Histogram::sharedCell()
{
    Cell *cell = shared_.load(std::memory_order_acquire);
    if (cell) [[likely]]
        return *cell;
    auto *fresh = new Cell();
    if (shared_.compare_exchange_strong(cell, fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire))
        return *fresh;
    delete fresh; // another thread installed one first
    return *cell;
}

void
Histogram::recordShared(std::size_t bucket, std::uint64_t nanos)
{
    sharedCell().add(bucket, 1, nanos, nanos);
}

void
Histogram::merge(const Histogram &other)
{
    const std::uint64_t lo = other.min();
    const std::uint64_t hi = other.max();
    // The owner may use read-modify-writes on its own cell too: it is
    // that cell's only writer either way.
    Cell &cell = owner_.held() ? owned_ : sharedCell();
    for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::uint64_t n = other.bucketCount(b);
        if (n)
            cell.add(b, n, lo, hi);
    }
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < kBuckets; ++b)
        total += bucketCount(b);
    return total;
}

std::uint64_t
Histogram::sum() const
{
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::uint64_t n = bucketCount(b);
        if (n == 0)
            continue;
        std::uint64_t mid;
        if (b >= kOverflowBucket) {
            // Out-of-range samples: the best available stand-in is
            // the largest value ever seen.
            mid = max();
        } else {
            const std::uint64_t lo = bucketLowerBound(b);
            mid = lo + (bucketUpperBound(b) - lo - 1) / 2;
        }
        total += n * mid;
    }
    return total;
}

std::uint64_t
Histogram::min() const
{
    std::uint64_t v = owned_.min.load(std::memory_order_relaxed);
    if (const Cell *shared = shared_.load(std::memory_order_acquire))
        v = std::min(v, shared->min.load(std::memory_order_relaxed));
    return v == UINT64_MAX ? 0 : v;
}

std::uint64_t
Histogram::max() const
{
    std::uint64_t v = owned_.max.load(std::memory_order_relaxed);
    if (const Cell *shared = shared_.load(std::memory_order_acquire))
        v = std::max(v, shared->max.load(std::memory_order_relaxed));
    return v;
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t
Histogram::overflowCount() const
{
    return bucketCount(kOverflowBucket);
}

double
Histogram::percentile(double pct) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    pct = std::clamp(pct, 0.0, 100.0);
    const double rank = pct / 100.0 * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::uint64_t here = bucketCount(b);
        if (here == 0)
            continue;
        if (static_cast<double>(seen + here) >= rank) {
            // Interpolate linearly inside the bucket: its width is at
            // most lo / kSubBuckets, which bounds the error.
            const auto lo = static_cast<double>(bucketLowerBound(b));
            const auto hi =
                b >= kOverflowBucket
                    ? static_cast<double>(max())
                    : static_cast<double>(bucketUpperBound(b));
            const double frac =
                (rank - static_cast<double>(seen)) /
                static_cast<double>(here);
            const double value = lo + std::max(0.0, frac) * (hi - lo);
            return std::clamp(value, static_cast<double>(min()),
                              static_cast<double>(max()));
        }
        seen += here;
    }
    return static_cast<double>(max());
}

std::uint64_t
Histogram::bucketCount(std::size_t bucket) const
{
    if (bucket >= kBuckets)
        return 0;
    std::uint64_t n = owned_.buckets[bucket].load(std::memory_order_relaxed);
    if (const Cell *shared = shared_.load(std::memory_order_acquire))
        n += shared->buckets[bucket].load(std::memory_order_relaxed);
    return n;
}

HistogramSummary
Histogram::summary() const
{
    HistogramSummary out;
    out.count = count();
    out.sum = sum();
    out.min = min();
    out.max = max();
    out.overflow = overflowCount();
    out.mean = out.count == 0 ? 0.0
                              : static_cast<double>(out.sum) /
                                    static_cast<double>(out.count);
    out.p50 = percentile(50.0);
    out.p90 = percentile(90.0);
    out.p99 = percentile(99.0);
    out.p999 = percentile(99.9);
    return out;
}

void
Histogram::reset()
{
    owned_.reset();
    if (Cell *shared = shared_.load(std::memory_order_acquire))
        shared->reset();
}

} // namespace hydra::obs
