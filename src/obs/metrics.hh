/**
 * @file
 * Process-wide metrics registry (DESIGN.md "Observability").
 *
 * Three instrument kinds cover the reproduction's needs:
 *  - Counter: monotonically increasing event count (messages sent,
 *    bus crossings, offcodes deployed).
 *  - Gauge: last-written level (event queue depth).
 *  - Histogram: HDR-style log-linear distribution of simulated-time
 *    durations in nanoseconds (channel send->deliver, Offcode service
 *    time, DMA transfers) with p50/p90/p99/p999 — see histogram.hh.
 *
 * Handles are identified by (name, labels) and live for the process
 * lifetime: registration takes a mutex, but updates take no lock, so
 * instruments can be cached in function-local statics at hot call
 * sites and bumped from anywhere. Counter and Histogram write through
 * owner-thread cells (owner.hh): the first thread to write one updates
 * it with a plain load and store, and only other threads pay an atomic
 * read-modify-write. reset() zeroes values without invalidating
 * handles, which lets benches and tests scope measurements to one
 * scenario; it must only run while no thread writes the instruments.
 */

#ifndef HYDRA_OBS_METRICS_HH
#define HYDRA_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/histogram.hh"
#include "obs/owner.hh"

namespace hydra::obs {

/** Metric labels: (key, value) pairs; order-insensitive identity. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/**
 * Monotonic event counter. The owning thread (the first writer) adds
 * with a relaxed load and store; every other thread fetch_adds into a
 * shared cell, and value() sums both, so concurrent writers under the
 * threaded executor never lose an increment, which the
 * payload-conservation invariants (allocations == recycles + live)
 * depend on. On a 4-vCPU Xeon VM an uncontended relaxed fetch_add
 * (x86 runs it as a locked instruction) measured 8–9 ns per call in a
 * tight loop; the owner's load and store measured ≈3 ns there, all of
 * it the store-to-load forwarding of back-to-back bumps, and less
 * between other work. reset() only while writers are quiescent.
 */
class Counter
{
  public:
    void
    add(std::uint64_t n)
    {
        if (owner_.held())
            addOwned(owned_, n);
        else
            shared_.fetch_add(n, std::memory_order_relaxed);
    }
    void increment() { add(1); }
    std::uint64_t
    value() const
    {
        return owned_.load(std::memory_order_relaxed) +
               shared_.load(std::memory_order_relaxed);
    }
    void
    reset()
    {
        owned_.store(0, std::memory_order_relaxed);
        shared_.store(0, std::memory_order_relaxed);
    }

  private:
    OwnerThread owner_;
    std::atomic<std::uint64_t> owned_{0};
    std::atomic<std::uint64_t> shared_{0};
};

/** Last-written level. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/** Flat display key: "name{k=v,...}" (labels already sorted). */
std::string displayKey(const std::string &name, const Labels &labels);

/**
 * Inverse of displayKey: split "name{k=v,...}" back into name and
 * labels (the SLO engine addresses instruments by display key).
 * Returns false on malformed keys; a bare "name" parses with empty
 * labels. Label values may contain any character except ',' and '}'.
 */
bool parseDisplayKey(const std::string &key, std::string &name,
                     Labels &labels);

/**
 * A point-in-time copy of every instrument, keyed by display name and
 * sorted, so the flight recorder and report printers can enumerate the
 * registry without holding its lock.
 */
struct RegistrySnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSummary>> histograms;
};

/** Registry of all instruments, keyed by (name, labels). */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(std::string_view name, const Labels &labels = {});
    Gauge &gauge(std::string_view name, const Labels &labels = {});
    Histogram &histogram(std::string_view name, const Labels &labels = {});

    /** Value of a counter, or 0 when it was never registered. */
    std::uint64_t counterValue(const std::string &name,
                               const Labels &labels = {}) const;
    /** Sum of every counter sharing @p name, across label sets. */
    std::uint64_t counterTotal(const std::string &name) const;
    /** Histogram lookup for tests; nullptr when absent. */
    const Histogram *findHistogram(const std::string &name,
                                   const Labels &labels = {}) const;

    /** Copy of every instrument's value, sorted by display key. */
    RegistrySnapshot snapshot() const;

    /** Zero every value; handles stay valid. */
    void reset();

    /** Machine-readable dump (one JSON object). */
    std::string toJson() const;
    /** Human-readable aligned table. */
    std::string prettyTable() const;

  private:
    MetricsRegistry() = default;

    template <typename T>
    struct Entry
    {
        std::string name;
        Labels labels;
        std::unique_ptr<T> instrument;
    };

    /**
     * One instrument kind: entries in registration order (what the
     * exporters walk) plus a hash index over (name, sorted labels)
     * into them, so a lookup hashes and compares a few entries instead
     * of scanning every series.
     */
    template <typename T>
    struct Table
    {
        std::vector<Entry<T>> entries;
        std::unordered_multimap<std::size_t, std::size_t> index;

        /** Entry with exactly this identity; nullptr when absent. */
        const Entry<T> *find(std::size_t hash, std::string_view name,
                             const Labels &sorted) const;
    };

    template <typename T>
    T &findOrCreate(Table<T> &table, std::string_view name,
                    const Labels &labels);

    mutable std::mutex mutex_;
    Table<Counter> counters_;
    Table<Gauge> gauges_;
    Table<Histogram> histograms_;
};

/** Shorthands for instrumentation sites. */
inline Counter &
counter(std::string_view name, const Labels &labels = {})
{
    return MetricsRegistry::instance().counter(name, labels);
}

inline Gauge &
gauge(std::string_view name, const Labels &labels = {})
{
    return MetricsRegistry::instance().gauge(name, labels);
}

inline Histogram &
histogram(std::string_view name, const Labels &labels = {})
{
    return MetricsRegistry::instance().histogram(name, labels);
}

} // namespace hydra::obs

#endif // HYDRA_OBS_METRICS_HH
