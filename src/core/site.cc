#include "core/site.hh"

#include "obs/metrics.hh"
#include "obs/profiler.hh"

namespace hydra::core {

obs::Histogram &
ExecutionSite::deliveryLatency(const std::string &channel)
{
    std::lock_guard<exec::ModelMutex> lock(latencyMutex_);
    if (!latencySeries_ || latencyChannel_ != channel) {
        latencySeries_ = &obs::histogram(
            "channel.delivery_latency_ns",
            {{"channel", channel}, {"host", machine().name()}});
        latencyChannel_ = channel;
    }
    return *latencySeries_;
}

HostSite::HostSite(hw::Machine &machine)
    : ExecutionSite(machine.executor()), machine_(machine),
      name_(machine.name() + ".host")
{
    profilerSlot_ = obs::Profiler::instance().slotFor(name_);
}

sim::SimTime
HostSite::run(std::uint64_t cycles)
{
    return machine_.cpu().runCycles(cycles);
}

void
HostSite::timerAfter(sim::SimTime delay, std::function<void()> done)
{
    // Host timers are quantized to the scheduler tick and disturbed
    // by run-queue noise; the wakeup also costs a context switch.
    const sim::SimTime wake = machine_.os().wakeAfter(delay);
    machine_.executor().scheduleAt(wake, [this, done = std::move(done)]() {
        machine_.os().contextSwitch();
        done();
    });
}

DeviceSite::DeviceSite(hw::Machine &host, dev::Device &device)
    : ExecutionSite(host.executor()), host_(host), device_(device)
{
    profilerSlot_ = obs::Profiler::instance().slotFor(device_.name());
}

sim::SimTime
DeviceSite::run(std::uint64_t cycles)
{
    return device_.runFirmware(cycles);
}

void
DeviceSite::timerAfter(sim::SimTime delay, std::function<void()> done)
{
    device_.timerAfter(delay, std::move(done));
}

} // namespace hydra::core
