#include "hw/cpu.hh"

#include <algorithm>
#include <cassert>

namespace hydra::hw {

Cpu::Cpu(exec::Executor &executor, std::string name, double clock_ghz)
    : exec_(executor), name_(std::move(name)), clockGhz_(clock_ghz),
      chargeMutex_(executor)
{
    assert(clock_ghz > 0.0);
}

sim::SimTime
Cpu::runCycles(std::uint64_t cycles)
{
    return runFor(cycleTime(cycles));
}

sim::SimTime
Cpu::runFor(sim::SimTime duration)
{
    const sim::SimTime now = exec_.now();
    std::lock_guard<exec::ModelMutex> lock(chargeMutex_);
    const sim::SimTime start = std::max(now, freeAt());
    const sim::SimTime done = start + duration;
    freeAt_.store(done, std::memory_order_relaxed);
    busyTime_.store(busyTime() + duration, std::memory_order_relaxed);
    return done;
}

CpuMeter::CpuMeter(const Cpu &cpu) : cpu_(cpu) {}

void
CpuMeter::beginWindow(sim::SimTime now)
{
    windowStart_ = now;
    busyAtStart_ = cpu_.busyTime();
}

double
CpuMeter::sample(sim::SimTime now)
{
    if (now <= windowStart_)
        return 0.0;
    const auto busy =
        static_cast<double>(cpu_.busyTime() - busyAtStart_);
    const auto span = static_cast<double>(now - windowStart_);
    beginWindow(now);
    return std::min(1.0, busy / span);
}

} // namespace hydra::hw
