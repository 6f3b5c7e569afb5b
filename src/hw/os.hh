/**
 * @file
 * Host operating-system cost model.
 *
 * Charges the host CPU (and pollutes the host L2) for the OS-path
 * operations the paper's evaluation hinges on: syscall entry/exit,
 * kernel/user copies, context switches, interrupt handling, and
 * timer-tick-quantized sleeping (the source of user-space jitter —
 * cf. the paper's reference to Tsafrir et al. on OS clock-tick
 * noise). Also generates the "idle system" background load that the
 * paper's tables use as the baseline (≈2.9 % CPU).
 */

#ifndef HYDRA_HW_OS_HH
#define HYDRA_HW_OS_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "hw/cache.hh"
#include "hw/cpu.hh"
#include "exec/executor.hh"
#include "common/time.hh"

namespace hydra::hw {

/** Tunable cost constants for the OS model. */
struct OsConfig
{
    /** Scheduler tick period (Linux 2.6 HZ=1000 → 1 ms). */
    sim::SimTime tickPeriod = sim::milliseconds(1);

    /** Cycles charged per syscall entry/exit pair. */
    std::uint64_t syscallCycles = 1500;

    /** Cycles charged per context switch. */
    std::uint64_t contextSwitchCycles = 6000;

    /** Cache footprint a context switch drags through L2 (bytes). */
    std::size_t contextSwitchFootprint = 2 * 1024;

    /** Cycles charged per hardware interrupt. */
    std::uint64_t interruptCycles = 9000;

    /** Fixed + per-byte copy cost. */
    std::uint64_t copyBaseCycles = 300;
    double copyCyclesPerByte = 1.0;

    /**
     * Run-queue delay applied after a timer wakeup: half-normal with
     * this sigma. Tick quantization supplies the rest of the jitter.
     */
    sim::SimTime wakeupNoiseSigma = sim::microseconds(380);

    /**
     * Probability that a wakeup loses an extra tick to a competing
     * task (preemption by housekeeping/daemons).
     */
    double preemptionProbability = 0.07;

    /**
     * Background housekeeping (tick handler + daemons), expressed as
     * busy time per tick. 28.6 us per 1 ms tick ≈ 2.86 % CPU, the
     * paper's idle baseline.
     */
    sim::SimTime housekeepingPerTick = sim::nanoseconds(28600);
    sim::SimTime housekeepingJitterSigma = sim::nanoseconds(900);

    /** Kernel hot working set touched by housekeeping (mostly hits). */
    std::size_t hotSetBytes = 64 * 1024;

    /** Streaming bytes touched per tick (always missing). */
    std::size_t backgroundStreamPerTick = 1344;

    /** Size of the buffer the background stream cycles through. */
    std::size_t backgroundStreamBytes = 4 * 1024 * 1024;
};

/**
 * The host OS: owns a bump address-space allocator for modeled
 * buffers, charges CPU cycles + cache traffic for kernel paths, and
 * produces tick-quantized wakeups.
 */
class OsKernel
{
  public:
    OsKernel(exec::Executor &executor, Cpu &cpu, CacheModel &l2,
             OsConfig config, std::uint64_t noise_seed);

    const OsConfig &config() const { return config_; }
    Cpu &cpu() { return cpu_; }
    CacheModel &l2() { return l2_; }

    /** Allocate a modeled buffer region; returns its base address. */
    Addr allocRegion(std::size_t bytes);

    /** Charge one syscall; returns CPU completion time. */
    sim::SimTime syscall(std::uint64_t extra_cycles = 0);

    /**
     * Kernel/user copy: charges cycles and touches the cache (read
     * of src, write-allocate of dst).
     */
    sim::SimTime copyBytes(Addr src, Addr dst, std::size_t bytes);

    /** Charge a context switch (cycles + cache pollution). */
    sim::SimTime contextSwitch();

    /** Charge a hardware-interrupt service. */
    sim::SimTime handleInterrupt();

    /**
     * Model of nanosleep-class timer sleeping: the expiry lands on
     * the jiffy after the one containing now+duration (classic timer-
     * wheel semantics: floor to the current jiffy, plus one), then is
     * delayed by run-queue noise and occasional preemption. Returns
     * the absolute time at which the sleeping task actually resumes.
     */
    sim::SimTime wakeAfter(sim::SimTime duration);

    /**
     * Resumption after blocking I/O: the interrupt marks the task
     * runnable, but it is scheduled at the next tick boundary (plus
     * run-queue noise) when other tasks hold the CPU — the OS-noise
     * effect the paper cites (Tsafrir et al.).
     */
    sim::SimTime ioWake();

    /** A device DMA-wrote host memory at [dst, dst+bytes). */
    void dmaDelivered(Addr dst, std::size_t bytes);

    /**
     * Start the idle background load (periodic housekeeping). Runs
     * until the simulation ends.
     */
    void startBackgroundLoad();

  private:
    void housekeepingTick();

    exec::Executor &exec_;
    Cpu &cpu_;
    CacheModel &l2_;
    OsConfig config_;
    hydra::Rng rng_;
    /** Atomic bump pointer: fleet drivers allocate stream buffers
     * concurrently with the coordinator's kernel paths. */
    std::atomic<Addr> nextAddr_{0x1000'0000};
    Addr hotSet_ = 0;
    Addr backgroundStream_ = 0;
    std::size_t streamOffset_ = 0;
    bool backgroundRunning_ = false;
};

} // namespace hydra::hw

#endif // HYDRA_HW_OS_HH
