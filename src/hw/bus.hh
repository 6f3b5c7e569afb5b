/**
 * @file
 * Shared I/O interconnect (PCI-class bus) and DMA engine models.
 *
 * Bus crossings are the central currency of the paper's layout
 * arguments: Gang/Pull constraints exist to minimize them. The Bus
 * therefore counts every transaction and serializes transfers at a
 * configured bandwidth with a per-transaction setup latency.
 */

#ifndef HYDRA_HW_BUS_HH
#define HYDRA_HW_BUS_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/time.hh"
#include "exec/callback.hh"
#include "exec/executor.hh"
#include "exec/model_mutex.hh"

namespace hydra::obs {
class Histogram;
} // namespace hydra::obs

namespace hydra::hw {

/** Aggregate counters exposed for tests and benches. */
struct BusStats
{
    std::uint64_t transactions = 0;
    std::uint64_t bytesMoved = 0;
    sim::SimTime busyTime = 0;
    /** Transactions that waited for an in-flight transfer. */
    std::uint64_t contentionStalls = 0;
    /** Total time transactions spent waiting for the bus. */
    sim::SimTime stallTime = 0;
};

/** Shared interconnect: serializes transfers, counts crossings. */
class Bus
{
  public:
    using Callback = exec::Callback;

    /**
     * @param bandwidth_gbps Payload bandwidth in gigabits per second.
     * @param setup_latency Fixed per-transaction arbitration cost.
     */
    Bus(exec::Executor &executor, std::string name, double bandwidth_gbps,
        sim::SimTime setup_latency);

    /**
     * Queue a transfer of @p bytes; @p done fires when the payload has
     * fully crossed the bus. Transfers are serviced FIFO.
     */
    void transfer(std::uint64_t bytes, Callback done);

    /** Completion time of a transfer queued now (without queuing it). */
    sim::SimTime estimateCompletion(std::uint64_t bytes) const;

    /** Snapshot of the counters (safe while transfers run). */
    BusStats stats() const;
    const std::string &name() const { return name_; }
    double bandwidthGbps() const { return bandwidthGbps_; }

  private:
    exec::Executor &exec_;
    std::string name_;
    double bandwidthGbps_;
    sim::SimTime setupLatency_;
    /**
     * A real bus is an arbiter: in a fleet, a host's driver thread
     * (remote channel sends) and the coordinator (DMA completions,
     * intra-host rings) both queue transfers concurrently, so the
     * free-time bookkeeping serializes under a lock (taken only on an
     * engine that runs posts concurrently). The critical section is a
     * few integer updates; the completion callback is scheduled
     * outside it.
     */
    mutable exec::ModelMutex mutex_;
    sim::SimTime freeAt_ = 0;
    BusStats stats_;
};

/**
 * Bus-mastering DMA engine owned by a device: moves data between
 * device memory and host memory in a single bus crossing, optionally
 * snoop-invalidating the host cache (handled by the caller).
 *
 * When constructed with an owner name, the engine records each
 * transfer's start->completion time (descriptor fetch + bus crossing,
 * including contention stalls) into `dma.transfer_ns{device=owner}`.
 */
class DmaEngine
{
  public:
    DmaEngine(exec::Executor &executor, Bus &bus,
              sim::SimTime per_descriptor_cost, std::string owner = {});

    /**
     * Start a DMA of @p bytes; @p done fires at completion. The engine
     * parks @p done in one of its own slots for the transfer's
     * lifetime, so the descriptor-fetch and bus-crossing events carry
     * only the slot number, never a nested copy of the closure.
     */
    void start(std::uint64_t bytes, Bus::Callback done);

    std::uint64_t
    transfersStarted() const
    {
        return transfers_.load(std::memory_order_relaxed);
    }

  private:
    /** Bus-crossing completion: record the latency, run the slot. */
    void complete(exec::CallbackSlab::Slot slot, sim::SimTime startedAt);

    exec::Executor &exec_;
    Bus &bus_;
    sim::SimTime perDescriptorCost_;
    /** Written under pendingMutex_ (fleet driver threads start DMAs
     * concurrently on the threaded engine); read lock-free. */
    std::atomic<std::uint64_t> transfers_{0};
    /** In-flight completions; locked where transfers start on any
     * thread (the threaded engine). */
    exec::ModelMutex pendingMutex_;
    exec::CallbackSlab pending_;
    /** `dma.transfer_ns{device=owner}`; nullptr when anonymous. */
    obs::Histogram *transferNs_ = nullptr;
};

} // namespace hydra::hw

#endif // HYDRA_HW_BUS_HH
