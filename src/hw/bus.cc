#include "hw/bus.hh"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hydra::hw {

namespace {

struct BusMetrics
{
    obs::Counter &crossings = obs::counter("bus.crossings");
    obs::Counter &bytes = obs::counter("bus.bytes_moved");
    obs::Counter &stalls = obs::counter("bus.contention_stalls");
    obs::Histogram &stallNs = obs::histogram("bus.stall_ns");
};

BusMetrics &
busMetrics()
{
    static BusMetrics metrics;
    return metrics;
}

} // namespace

Bus::Bus(exec::Executor &executor, std::string name, double bandwidth_gbps,
         sim::SimTime setup_latency)
    : exec_(executor), name_(std::move(name)),
      bandwidthGbps_(bandwidth_gbps), setupLatency_(setup_latency),
      mutex_(executor)
{
    assert(bandwidth_gbps > 0.0);
}

void
Bus::transfer(std::uint64_t bytes, Callback done)
{
    const sim::SimTime nowTime = exec_.now();
    const sim::SimTime payload = sim::transferTime(bytes, bandwidthGbps_);
    const sim::SimTime duration = setupLatency_ + payload;
    sim::SimTime start = 0;
    sim::SimTime stalled = 0;
    sim::SimTime fireAt = 0;
    {
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        start = std::max(nowTime, freeAt_);
        stalled = start - nowTime;
        freeAt_ = start + duration;
        fireAt = freeAt_;

        ++stats_.transactions;
        stats_.bytesMoved += bytes;
        stats_.busyTime += duration;
        if (stalled > 0) {
            ++stats_.contentionStalls;
            stats_.stallTime += stalled;
        }
    }

    BusMetrics &metrics = busMetrics();
    metrics.crossings.increment();
    metrics.bytes.add(bytes);
    if (stalled > 0) {
        metrics.stalls.increment();
        metrics.stallNs.record(stalled);
    }

    if (HYDRA_TRACE_ACTIVE()) {
        auto &tracer = obs::Tracer::instance();
        // "server.bus" -> process "server", thread "bus".
        const auto dot = name_.find('.');
        const std::string process =
            dot == std::string::npos ? name_ : name_.substr(0, dot);
        const std::string thread =
            dot == std::string::npos ? "bus" : name_.substr(dot + 1);
        tracer.complete(tracer.lane(process, thread), "bus.xfer", "bus",
                        start, duration);
    }

    exec_.scheduleAt(fireAt, std::move(done));
}

BusStats
Bus::stats() const
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    return stats_;
}

DmaEngine::DmaEngine(exec::Executor &executor, Bus &bus,
                     sim::SimTime per_descriptor_cost, std::string owner)
    : exec_(executor), bus_(bus), perDescriptorCost_(per_descriptor_cost),
      pendingMutex_(executor)
{
    if (!owner.empty())
        transferNs_ = &obs::histogram("dma.transfer_ns",
                                      {{"device", std::move(owner)}});
}

void
DmaEngine::start(std::uint64_t bytes, Bus::Callback done)
{
    const sim::SimTime startedAt = exec_.now();
    exec::CallbackSlab::Slot slot;
    {
        std::lock_guard<exec::ModelMutex> lock(pendingMutex_);
        transfers_.store(transfers_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
        slot = pending_.hold(std::move(done));
    }
    // Descriptor fetch/setup happens on the device before the payload
    // crosses the bus.
    exec_.schedule(perDescriptorCost_, [this, bytes, startedAt, slot]() {
        bus_.transfer(bytes,
                      [this, startedAt, slot]() { complete(slot, startedAt); });
    });
}

void
DmaEngine::complete(exec::CallbackSlab::Slot slot, sim::SimTime startedAt)
{
    if (transferNs_)
        transferNs_->record(exec_.now() - startedAt);
    // Take the completion out under the lock and run it outside: it
    // may start the next DMA on this engine.
    Bus::Callback done;
    {
        std::lock_guard<exec::ModelMutex> lock(pendingMutex_);
        done = std::move(pending_.at(slot));
        pending_.release(slot);
    }
    done();
}

} // namespace hydra::hw
