/**
 * @file
 * Host-time instrumentation for the benchmark: in-memory spans around
 * the benchmark's own calls into each layer, the calibrated ladders
 * that price work inside calls it cannot split, and helpers that read
 * the simulator's obs registry.
 *
 * Spans are recorded only from the benchmark's files; nothing inside
 * the simulator is instrumented for it. A span's self time is its
 * duration minus the time its child spans cover.
 */

#ifndef HYDRA_PERFBENCH_LEDGER_HH
#define HYDRA_PERFBENCH_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.hh"

namespace perfbench {

/** Host monotonic clock, nanoseconds. */
inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span. parent is an index into the same round, or -1. */
struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t childNs = 0;
    std::int32_t parent = -1;
    std::uint64_t trace = 0;
};

/** Per-name totals folded from a round's spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
};

/** Spans of the current round, kept in memory until fold(). */
class SpanRecorder
{
  public:
    std::int32_t open(const char *name, std::uint64_t trace);
    void close(std::int32_t id);

    /** Add this round's spans to the totals; keep them for export. */
    void fold();

    const std::map<std::string, SpanTotals> &totals() const
    {
        return totals_;
    }

    /** Write every span of the last folded round as JSON. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<Span> lastRound_;
    std::vector<std::int32_t> stack_;
    std::map<std::string, SpanTotals> totals_;
};

/** RAII span; a null recorder makes it a no-op (untraced runs). */
class Scope
{
  public:
    Scope(SpanRecorder *recorder, const char *name, std::uint64_t trace = 0)
        : recorder_(recorder),
          id_(recorder ? recorder->open(name, trace) : -1)
    {
    }
    ~Scope()
    {
        if (recorder_)
            recorder_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder *recorder_;
    std::int32_t id_;
};

/**
 * Host ns per line of hw::CacheModel::access on the OS housekeeping
 * shape (64 KiB hot set + 1344 B of stream per tick, 256 KiB 8-way
 * L2). Fastest of five timed passes.
 */
double cacheNsPerLine();

/**
 * Host ns per SimExecutor schedule+dispatch: a self-rescheduling
 * callback with @p pending other events parked in the queue, the
 * depth the workload's executor holds. Fastest of five timed passes.
 */
double simNsPerEvent(std::size_t pending);

/** Sum of a counter over every label set in the obs registry. */
std::uint64_t counterTotal(const std::string &name);

/** Every registry series named @p name (any labels), merged. */
void mergeHistograms(const std::string &name, hydra::obs::Histogram &out);

/** Number of series (counters, gauges, histograms) in the registry. */
std::size_t registrySeries();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // HYDRA_PERFBENCH_LEDGER_HH
