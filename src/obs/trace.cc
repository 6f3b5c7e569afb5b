#include "obs/trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "obs/metrics.hh"

namespace hydra::obs {

namespace {

/** trace_event timestamps are microseconds; keep ns as fractions. */
void
writeTimestamp(std::ostream &out, sim::SimTime ns)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    out << buf;
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::enable(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity == 0 ? 1 : capacity;
    ring_.clear();
    ring_.reserve(std::min<std::size_t>(capacity_, 1 << 20));
    total_ = 0;
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    total_ = 0;
}

TraceLane
Tracer::lane(const std::string &process, const std::string &thread)
{
    std::lock_guard<std::mutex> lock(mutex_);
    int pid = 0;
    int maxPid = 0;
    for (const LaneName &known : lanes_) {
        maxPid = std::max(maxPid, known.lane.pid);
        if (known.process == process) {
            pid = known.lane.pid;
            if (known.thread == thread)
                return known.lane;
        }
    }
    if (pid == 0)
        pid = maxPid + 1;
    int tid = 1;
    for (const LaneName &known : lanes_)
        if (known.lane.pid == pid)
            tid = std::max(tid, known.lane.tid + 1);
    const TraceLane lane{pid, tid};
    lanes_.push_back(LaneName{process, thread, lane});
    return lane;
}

void
Tracer::record(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_.load(std::memory_order_relaxed) || capacity_ == 0)
        return;
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(event));
    } else {
        ring_[total_ % capacity_] = std::move(event);
        static Counter &dropped = counter("obs.trace.dropped_events");
        dropped.increment();
    }
    ++total_;
}

void
Tracer::complete(TraceLane lane, const std::string &name,
                 const std::string &category, sim::SimTime start,
                 sim::SimTime duration)
{
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.phase = 'X';
    event.ts = start;
    event.dur = duration;
    event.pid = lane.pid;
    event.tid = lane.tid;
    record(std::move(event));
}

void
Tracer::instant(TraceLane lane, const std::string &name,
                const std::string &category, sim::SimTime ts)
{
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.phase = 'i';
    event.ts = ts;
    event.pid = lane.pid;
    event.tid = lane.tid;
    record(std::move(event));
}

void
Tracer::counterSample(TraceLane lane, const std::string &name,
                      sim::SimTime ts, double value)
{
    TraceEvent event;
    event.name = name;
    event.phase = 'C';
    event.ts = ts;
    event.pid = lane.pid;
    event.tid = lane.tid;
    event.value = value;
    record(std::move(event));
}

void
Tracer::span(TraceLane lane, const std::string &name,
             const std::string &category, sim::SimTime start,
             sim::SimTime duration, std::uint64_t trace_id,
             std::uint64_t span_id, std::uint64_t parent_id)
{
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.phase = 'X';
    event.ts = start;
    event.dur = duration;
    event.pid = lane.pid;
    event.tid = lane.tid;
    event.traceId = trace_id;
    event.spanId = span_id;
    event.parentId = parent_id;
    record(std::move(event));
}

std::size_t
Tracer::eventsRecorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

std::uint64_t
Tracer::eventsOverwritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

std::size_t
Tracer::capacity() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

void
Tracer::writeJson(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;

    // Lane metadata first, so Perfetto names every track: one
    // process_name per distinct pid, one thread_name per lane.
    std::vector<int> namedPids;
    for (const LaneName &lane : lanes_) {
        if (!first)
            out << ',';
        first = false;
        if (std::find(namedPids.begin(), namedPids.end(),
                      lane.lane.pid) == namedPids.end()) {
            namedPids.push_back(lane.lane.pid);
            out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
                << lane.lane.pid << ",\"tid\":0,\"args\":{\"name\":\"";
            json::escape(out, lane.process);
            out << "\"}},";
        }
        out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
            << lane.lane.pid << ",\"tid\":" << lane.lane.tid
            << ",\"args\":{\"name\":\"";
        json::escape(out, lane.thread);
        out << "\"}}";
    }

    // The ring is a circular buffer; emit in recording order.
    const std::size_t n = ring_.size();
    const std::size_t start = n < capacity_ ? 0 : total_ % capacity_;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEvent &event = ring_[(start + i) % n];
        if (!first)
            out << ',';
        first = false;
        out << "{\"name\":\"";
        json::escape(out, event.name);
        out << "\",\"ph\":\"" << event.phase << "\",\"ts\":";
        writeTimestamp(out, event.ts);
        out << ",\"pid\":" << event.pid << ",\"tid\":" << event.tid;
        if (!event.category.empty()) {
            out << ",\"cat\":\"";
            json::escape(out, event.category);
            out << '"';
        }
        if (event.phase == 'X') {
            out << ",\"dur\":";
            writeTimestamp(out, event.dur);
            if (event.spanId != 0) {
                out << ",\"args\":{\"trace_id\":" << event.traceId
                    << ",\"span_id\":" << event.spanId
                    << ",\"parent_id\":" << event.parentId << '}';
            }
        } else if (event.phase == 'i') {
            out << ",\"s\":\"t\"";
        } else if (event.phase == 'C') {
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%.6g", event.value);
            out << ",\"args\":{\"value\":" << buf << '}';
        }
        out << '}';

        // Legacy flow events bound by trace id stitch a trace's spans
        // into one arrow chain across lanes. The flow point sits at
        // the slice midpoint so Perfetto attaches it to the slice.
        if (event.phase == 'X' && event.spanId != 0) {
            out << ",{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\""
                << (event.parentId == 0 ? 's' : 't')
                << "\",\"id\":" << event.traceId << ",\"ts\":";
            writeTimestamp(out, event.ts + event.dur / 2);
            out << ",\"pid\":" << event.pid << ",\"tid\":" << event.tid
                << '}';
        }
    }
    out << "],\"otherData\":{\"clock\":\"simulated\",\"overwritten\":"
        << (total_ > n ? total_ - n : 0) << "}}";
}

bool
Tracer::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeJson(out);
    out.flush();
    return out.good();
}

} // namespace hydra::obs
