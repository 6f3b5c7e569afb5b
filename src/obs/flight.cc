#include "obs/flight.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/json.hh"

namespace hydra::obs {

namespace {

void
writeNumber(std::ostringstream &out, double value)
{
    if (std::isfinite(value)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        out << buf;
    } else {
        out << "0";
    }
}

} // namespace

FlightRecorder &
FlightRecorder::instance()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::configure(FlightConfig config)
{
    std::lock_guard<std::mutex> lock(mutex_);
    config_ = config;
    if (config_.capacity == 0)
        config_.capacity = 1;
    ring_.clear();
    captured_ = 0;
    droppedSnapshots_ = 0;
    lastCounter_.clear();
    lastHistogramCount_.clear();
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    captured_ = 0;
    droppedSnapshots_ = 0;
    lastCounter_.clear();
    lastHistogramCount_.clear();
}

void
FlightRecorder::capture(std::uint64_t nowNs)
{
    // Snapshot the registry before taking our own lock: registry and
    // recorder locks never nest, so OOB readers can't deadlock us.
    const RegistrySnapshot current = MetricsRegistry::instance().snapshot();

    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.at = nowNs;

    for (const auto &[key, value] : current.counters) {
        auto it = lastCounter_.find(key);
        const std::uint64_t last = it == lastCounter_.end() ? 0 : it->second;
        // Counters are monotone except across a registry reset, where
        // the baseline restarts from the new (lower) value.
        const std::uint64_t delta = value >= last ? value - last : value;
        lastCounter_[key] = value;
        if (delta != 0)
            snap.counterDeltas.emplace_back(key, delta);
    }
    for (const auto &[key, value] : current.gauges) {
        if (value != 0.0)
            snap.gauges.emplace_back(key, value);
    }
    for (const auto &[key, summary] : current.histograms) {
        auto it = lastHistogramCount_.find(key);
        const std::uint64_t last =
            it == lastHistogramCount_.end() ? 0 : it->second;
        lastHistogramCount_[key] = summary.count;
        if (summary.count != 0 && summary.count != last)
            snap.histograms.emplace_back(key, summary);
    }

    ++captured_;
    if (ring_.size() >= config_.capacity) {
        ring_.pop_front();
        ++droppedSnapshots_;
        MetricsRegistry::instance()
            .counter("obs.flight.dropped_snapshots")
            .increment();
    }
    ring_.push_back(std::move(snap));
}

std::size_t
FlightRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

std::uint64_t
FlightRecorder::captured() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return captured_;
}

std::uint64_t
FlightRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return droppedSnapshots_;
}

std::string
FlightRecorder::toJson(std::size_t maxSnapshots) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t first = 0;
    if (maxSnapshots != 0 && ring_.size() > maxSnapshots)
        first = ring_.size() - maxSnapshots;

    std::ostringstream out;
    out << "{\"capacity\":" << config_.capacity
        << ",\"captured\":" << captured_
        << ",\"dropped\":" << droppedSnapshots_ << ",\"snapshots\":[";
    for (std::size_t i = first; i < ring_.size(); ++i) {
        const Snapshot &snap = ring_[i];
        if (i != first)
            out << ',';
        out << "{\"t\":" << snap.at << ",\"counters\":{";
        bool firstEntry = true;
        for (const auto &[key, delta] : snap.counterDeltas) {
            if (!firstEntry)
                out << ',';
            firstEntry = false;
            out << '"';
            json::escape(out, key);
            out << "\":" << delta;
        }
        out << "},\"gauges\":{";
        firstEntry = true;
        for (const auto &[key, value] : snap.gauges) {
            if (!firstEntry)
                out << ',';
            firstEntry = false;
            out << '"';
            json::escape(out, key);
            out << "\":";
            writeNumber(out, value);
        }
        out << "},\"histograms\":{";
        firstEntry = true;
        for (const auto &[key, summary] : snap.histograms) {
            if (!firstEntry)
                out << ',';
            firstEntry = false;
            out << '"';
            json::escape(out, key);
            out << "\":{\"n\":" << summary.count
                << ",\"min\":" << summary.min
                << ",\"max\":" << summary.max << ",\"p50\":";
            writeNumber(out, summary.p50);
            out << ",\"p90\":";
            writeNumber(out, summary.p90);
            out << ",\"p99\":";
            writeNumber(out, summary.p99);
            out << ",\"p999\":";
            writeNumber(out, summary.p999);
            if (summary.overflow)
                out << ",\"overflow\":" << summary.overflow;
            out << '}';
        }
        out << "}}";
    }
    out << "]}";
    return out.str();
}

} // namespace hydra::obs
