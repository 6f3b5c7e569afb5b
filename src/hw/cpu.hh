/**
 * @file
 * Processor models with cycle accounting.
 *
 * A Cpu is a serially-occupied resource: work items acquire it for a
 * duration and it tracks cumulative busy time, from which the paper's
 * CPU-utilization tables (Tables 3 and 4) are computed. The same
 * class models the 2.4 GHz host Pentium IV and the low-clocked
 * firmware processors on peripherals (e.g. an XScale-class core).
 */

#ifndef HYDRA_HW_CPU_HH
#define HYDRA_HW_CPU_HH

#include <atomic>
#include <string>

#include "exec/executor.hh"
#include "exec/model_mutex.hh"
#include "common/time.hh"

namespace hydra::hw {

/** A single hardware execution resource (host core or firmware core). */
class Cpu
{
  public:
    Cpu(exec::Executor &executor, std::string name, double clock_ghz);

    const std::string &name() const { return name_; }
    double clockGhz() const { return clockGhz_; }

    /**
     * Occupy the CPU for @p cycles starting no earlier than now.
     * Returns the absolute completion time (start is delayed past any
     * previously queued work, modeling serial execution).
     */
    sim::SimTime runCycles(std::uint64_t cycles);

    /** Occupy the CPU for a wall-clock duration. */
    sim::SimTime runFor(sim::SimTime duration);

    /** Cumulative busy time since construction. */
    sim::SimTime
    busyTime() const
    {
        return busyTime_.load(std::memory_order_relaxed);
    }

    /** Time at which currently queued work completes. */
    sim::SimTime
    freeAt() const
    {
        return freeAt_.load(std::memory_order_relaxed);
    }

    /**
     * Cumulative busy time clamped to @p now. runFor charges whole
     * durations up front (freeAt_ may lie in the future); occupancy
     * is contiguous up to freeAt_, so the part not yet elapsed is
     * exactly freeAt_ - now. This is the attribution layer's read:
     * busy-so-far never exceeds wall (virtual) time so far.
     */
    sim::SimTime
    busyBefore(sim::SimTime now) const
    {
        const sim::SimTime busy = busyTime();
        const sim::SimTime free = freeAt();
        const sim::SimTime pending = free > now ? free - now : 0;
        return busy > pending ? busy - pending : 0;
    }

    /** Convert cycles to duration at this CPU's clock. */
    sim::SimTime
    cycleTime(std::uint64_t cycles) const
    {
        return sim::cyclesToTime(cycles, clockGhz_);
    }

  private:
    exec::Executor &exec_;
    std::string name_;
    double clockGhz_;
    /**
     * A charge is one critical section: on the threaded engine a host
     * CPU is charged from a fleet driver's site and from the
     * coordinator, and a separate load and store of freeAt_ would
     * lose one of two racing charges. On the sim engine the lock is
     * free. Both fields are relaxed atomics written under the lock,
     * so readers (CPU attribution, meters) stay lock-free.
     */
    exec::ModelMutex chargeMutex_;
    std::atomic<sim::SimTime> busyTime_{0};
    std::atomic<sim::SimTime> freeAt_{0};
};

/**
 * Samples a Cpu's utilization over fixed windows, as the paper does
 * (samples every 5 s during a 10 minute run).
 */
class CpuMeter
{
  public:
    explicit CpuMeter(const Cpu &cpu);

    /** Begin a new measurement window at the current time. */
    void beginWindow(sim::SimTime now);

    /** Utilization (0..1) of the window ending at @p now. */
    double sample(sim::SimTime now);

  private:
    const Cpu &cpu_;
    sim::SimTime windowStart_ = 0;
    sim::SimTime busyAtStart_ = 0;
};

} // namespace hydra::hw

#endif // HYDRA_HW_CPU_HH
