/**
 * @file
 * Event tracer emitting Chrome trace_event JSON, loadable in
 * Perfetto (https://ui.perfetto.dev) or chrome://tracing.
 *
 * Timestamps are *simulated* time: an exported trace shows where
 * simulated nanoseconds go (deploys, channel sends, bus transactions,
 * pipeline stages), laid out in one lane per device or subsystem.
 *
 * Cost model, mirroring HYDRA_LOG:
 *  - compile time: build with HYDRA_OBS_TRACING=0 and every
 *    HYDRA_TRACE_* macro expands to nothing;
 *  - run time: disabled by default; each macro first checks one
 *    relaxed atomic flag, so a disabled tracer costs one load and a
 *    predictable branch per site.
 *
 * Recording is bounded by a ring buffer: once capacity is reached
 * the oldest events are overwritten (the tail of a run is usually
 * the interesting part) and the overwrite count is reported.
 */

#ifndef HYDRA_OBS_TRACE_HH
#define HYDRA_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/time.hh"

namespace hydra::obs {

/** A (pid, tid) pair naming a Perfetto track. */
struct TraceLane
{
    int pid = 0;
    int tid = 0;
};

/** One recorded trace event (Chrome trace_event schema fields). */
struct TraceEvent
{
    std::string name;
    std::string category;
    char phase = 'i';      ///< 'X' complete, 'i' instant, 'C' counter
    sim::SimTime ts = 0;   ///< simulated start time, ns
    sim::SimTime dur = 0;  ///< duration, ns ('X' only)
    int pid = 0;
    int tid = 0;
    double value = 0.0;    ///< sample value ('C' only)
    /** Causal span identity; 0 = not a span ('X' span events only). */
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentId = 0;
};

/** Process-wide ring-buffered tracer. */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    static Tracer &instance();

    /** Start recording into a fresh ring of @p capacity events. */
    void enable(std::size_t capacity = kDefaultCapacity);
    void disable();
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Drop all recorded events; keeps the enabled state. */
    void clear();

    /** Intern a (process, thread) pair as a stable lane. */
    TraceLane lane(const std::string &process, const std::string &thread);

    /** Duration event: [start, start + duration) on @p lane. */
    void complete(TraceLane lane, const std::string &name,
                  const std::string &category, sim::SimTime start,
                  sim::SimTime duration);

    /** Point-in-time marker. */
    void instant(TraceLane lane, const std::string &name,
                 const std::string &category, sim::SimTime ts);

    /** Counter-track sample (renders as a stacked area in Perfetto). */
    void counterSample(TraceLane lane, const std::string &name,
                       sim::SimTime ts, double value);

    /**
     * Causal span: a duration event carrying trace/span/parent ids.
     * Exported both as an 'X' slice (with the ids in args) and as a
     * legacy flow event bound by trace id, so Perfetto draws one
     * connected arrow chain per trace across lanes.
     */
    void span(TraceLane lane, const std::string &name,
              const std::string &category, sim::SimTime start,
              sim::SimTime duration, std::uint64_t trace_id,
              std::uint64_t span_id, std::uint64_t parent_id);

    /** Events currently held in the ring. */
    std::size_t eventsRecorded() const;
    /** Events overwritten after the ring filled. */
    std::uint64_t eventsOverwritten() const;
    std::size_t capacity() const;

    /** Serialize as Chrome trace JSON (object form, with metadata). */
    void writeJson(std::ostream &out) const;
    /** writeJson to @p path; false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    Tracer() = default;

    void record(TraceEvent event);

    struct LaneName
    {
        std::string process;
        std::string thread;
        TraceLane lane;
    };

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<TraceEvent> ring_;
    std::size_t capacity_ = 0;
    std::uint64_t total_ = 0; ///< events ever recorded since enable()
    std::vector<LaneName> lanes_;
};

} // namespace hydra::obs

/** Compile-time switch; defaults to compiled in. */
#ifndef HYDRA_OBS_TRACING
#define HYDRA_OBS_TRACING 1
#endif

#if HYDRA_OBS_TRACING
#define HYDRA_TRACE_ACTIVE() (::hydra::obs::Tracer::instance().enabled())
#define HYDRA_TRACE_COMPLETE(lane, name, category, start, duration)        \
    do {                                                                   \
        if (HYDRA_TRACE_ACTIVE())                                          \
            ::hydra::obs::Tracer::instance().complete(                     \
                (lane), (name), (category), (start), (duration));          \
    } while (0)
#define HYDRA_TRACE_INSTANT(lane, name, category, ts)                      \
    do {                                                                   \
        if (HYDRA_TRACE_ACTIVE())                                          \
            ::hydra::obs::Tracer::instance().instant((lane), (name),       \
                                                     (category), (ts));    \
    } while (0)
#define HYDRA_TRACE_COUNTER(lane, name, ts, value)                         \
    do {                                                                   \
        if (HYDRA_TRACE_ACTIVE())                                          \
            ::hydra::obs::Tracer::instance().counterSample(                \
                (lane), (name), (ts), (value));                            \
    } while (0)
#else
#define HYDRA_TRACE_ACTIVE() (false)
#define HYDRA_TRACE_COMPLETE(lane, name, category, start, duration) ((void)0)
#define HYDRA_TRACE_INSTANT(lane, name, category, ts) ((void)0)
#define HYDRA_TRACE_COUNTER(lane, name, ts, value) ((void)0)
#endif

#endif // HYDRA_OBS_TRACE_HH
