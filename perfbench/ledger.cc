#include "ledger.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "exec/sim_executor.hh"
#include "hw/cache.hh"
#include "obs/metrics.hh"

namespace perfbench {

std::int32_t
SpanRecorder::open(const char *name, std::uint64_t trace)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.trace = trace;
    spans_.push_back(span);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    spans_.back().start = hostNs();
    return id;
}

void
SpanRecorder::close(std::int32_t id)
{
    Span &span = spans_[static_cast<std::size_t>(id)];
    span.end = hostNs();
    stack_.pop_back();
    if (span.parent >= 0)
        spans_[static_cast<std::size_t>(span.parent)].childNs +=
            span.end - span.start;
}

void
SpanRecorder::fold()
{
    for (const Span &span : spans_) {
        SpanTotals &totals = totals_[span.name];
        ++totals.count;
        totals.totalNs += span.end - span.start;
        totals.selfNs += span.end - span.start - span.childNs;
    }
    lastRound_.swap(spans_);
    spans_.clear();
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> out(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!out)
        return false;
    const std::int64_t base = lastRound_.empty() ? 0 : lastRound_[0].start;
    std::fprintf(out.get(), "{\"spans\": [");
    for (std::size_t i = 0; i < lastRound_.size(); ++i) {
        const Span &span = lastRound_[i];
        std::fprintf(out.get(),
                     "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"trace\": %llu}",
                     i ? "," : "", i, span.name,
                     static_cast<long long>(span.start - base),
                     static_cast<long long>(span.end - base), span.parent,
                     static_cast<unsigned long long>(span.trace));
    }
    std::fprintf(out.get(), "\n]}\n");
    return std::ferror(out.get()) == 0;
}

namespace {

/**
 * The fastest of five timed passes. Host noise only ever slows a pass
 * down, so the fastest is the least disturbed; a ladder that reads
 * slow would over-price the round it is carved out of.
 */
template <typename Pass>
double
fastestOfFive(Pass pass)
{
    double fastest = pass();
    for (int i = 1; i < 5; ++i)
        fastest = std::min(fastest, pass());
    return fastest;
}

} // namespace

double
cacheNsPerLine()
{
    // Same geometry and access pattern as hw::OsKernel's housekeeping
    // tick on a default hw::Machine.
    constexpr std::size_t kHotSet = 64 * 1024;
    constexpr std::size_t kStreamPerTick = 1344;
    constexpr std::size_t kStreamBytes = 4 * 1024 * 1024;
    constexpr int kTicks = 2000;
    hydra::hw::CacheModel cache(256 * 1024, 64, 8);
    const hydra::hw::Addr hot = 1 << 20;
    const hydra::hw::Addr stream = hot + (1 << 20);
    std::size_t offset = 0;
    const auto tick = [&]() {
        cache.access(hot, kHotSet, false);
        cache.access(stream + offset, kStreamPerTick, false);
        offset += kStreamPerTick;
        if (offset + kStreamPerTick > kStreamBytes)
            offset = 0;
    };
    for (int i = 0; i < kTicks / 4; ++i)
        tick();
    return fastestOfFive([&]() {
        const std::uint64_t lines0 = cache.totals().accesses;
        const std::int64_t t0 = hostNs();
        for (int i = 0; i < kTicks; ++i)
            tick();
        const std::int64_t t1 = hostNs();
        return static_cast<double>(t1 - t0) /
               static_cast<double>(cache.totals().accesses - lines0);
    });
}

double
simNsPerEvent(std::size_t pending)
{
    constexpr std::uint64_t kEvents = 200000;
    hydra::exec::SimExecutor executor;
    // Parked events sit beyond every pass, so they only deepen the heap.
    for (std::size_t i = 0; i < pending; ++i)
        executor.scheduleAt(hydra::sim::seconds(1000) +
                                static_cast<hydra::sim::SimTime>(i),
                            []() {});
    std::uint64_t remaining = 0;
    std::function<void()> hop = [&]() {
        if (--remaining > 0)
            executor.schedule(hydra::sim::microseconds(1), hop);
    };
    return fastestOfFive([&]() {
        remaining = kEvents;
        const std::uint64_t events0 = executor.eventsDispatched();
        const std::int64_t t0 = hostNs();
        executor.schedule(hydra::sim::microseconds(1), hop);
        executor.runUntil(executor.now() + hydra::sim::seconds(1));
        const std::int64_t t1 = hostNs();
        return static_cast<double>(t1 - t0) /
               static_cast<double>(executor.eventsDispatched() - events0);
    });
}

std::uint64_t
counterTotal(const std::string &name)
{
    return hydra::obs::MetricsRegistry::instance().counterTotal(name);
}

void
mergeHistograms(const std::string &name, hydra::obs::Histogram &out)
{
    auto &registry = hydra::obs::MetricsRegistry::instance();
    for (const auto &[key, summary] : registry.snapshot().histograms) {
        std::string series;
        hydra::obs::Labels labels;
        if (!hydra::obs::parseDisplayKey(key, series, labels) ||
            series != name)
            continue;
        if (const auto *histogram = registry.findHistogram(series, labels))
            out.merge(*histogram);
    }
}

std::size_t
registrySeries()
{
    const auto snapshot =
        hydra::obs::MetricsRegistry::instance().snapshot();
    return snapshot.counters.size() + snapshot.gauges.size() +
           snapshot.histograms.size();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
