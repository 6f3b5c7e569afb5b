#include "dev/device.hh"

#include <cmath>

#include "chaos/chaos.hh"
#include "common/logging.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"

namespace hydra::dev {

bool
DeviceClassSpec::satisfies(const DeviceClassSpec &required) const
{
    if (required.id != 0 && required.id != id)
        return false;
    if (!required.name.empty() && required.name != name)
        return false;
    if (!required.bus.empty() && required.bus != bus)
        return false;
    if (!required.mac.empty() && required.mac != mac)
        return false;
    if (!required.vendor.empty() && required.vendor != vendor)
        return false;
    return true;
}

Device::Device(exec::Executor &executor, hw::Bus &host_bus,
               DeviceConfig config, DeviceClassSpec klass)
    : exec_(executor), hostBus_(host_bus), config_(std::move(config)),
      class_(std::move(klass)), rng_(config_.noiseSeed)
{
    firmwareCpu_ = std::make_unique<hw::Cpu>(exec_, config_.name + ".fw",
                                             config_.firmwareGhz);
    dma_ = std::make_unique<hw::DmaEngine>(
        exec_, hostBus_, config_.dmaDescriptorCost, config_.name);
    site_ = exec_.addSite(config_.name, hostName());
    // The device site is its firmware core: CPU attribution reads the
    // same busy clock runFirmware charges.
    obs::CpuAttribution::instance().registerSite(
        config_.name,
        [cpu = firmwareCpu_.get()](std::uint64_t now) {
            return cpu->busyBefore(now);
        },
        /*isDevice=*/true, exec_.now(), /*host=*/hostName());
}

Device::~Device()
{
    obs::CpuAttribution::instance().unregisterSite(config_.name);
}

bool
Device::hasCapability(const std::string &cap) const
{
    return caps_.count(cap) != 0;
}

void
Device::addCapability(std::string cap)
{
    caps_.insert(std::move(cap));
}

Result<std::uint64_t>
Device::allocateLocal(std::size_t bytes)
{
    if (localUsed_ + bytes > config_.localMemoryBytes)
        return Error(ErrorCode::OutOfMemory,
                     name() + ": device memory exhausted");
    const std::uint64_t base = 0x8000'0000ull + localUsed_;
    localUsed_ += bytes;
    return base;
}

void
Device::freeLocal(std::size_t bytes)
{
    localUsed_ = bytes > localUsed_ ? 0 : localUsed_ - bytes;
}

std::size_t
Device::localMemoryFree() const
{
    return config_.localMemoryBytes - localUsed_;
}

void
Device::timerAfter(sim::SimTime delay, std::function<void()> done)
{
    const double noise = std::abs(
        rng_.normal(0.0, static_cast<double>(config_.timerNoiseSigma)));
    exec_.schedule(delay + static_cast<sim::SimTime>(noise),
                  std::move(done));
}

sim::SimTime
Device::runFirmware(std::uint64_t cycles)
{
    return firmwareCpu_->runCycles(cycles);
}

void
Device::addResetListener(ResetListener listener)
{
    resetListeners_.push_back(std::move(listener));
}

void
Device::reset(sim::SimTime downtime)
{
    if (resetting_)
        return; // already down; a second reset folds into the first
    resetting_ = true;
    obs::counter("dev.resets", {{"device", name()}}).increment();
    LOG_INFO << name() << ": device reset, firmware down for "
             << downtime << " ns";

    // Begin runs synchronously: listeners snapshot Offcode state and
    // quiesce channels *before* any more virtual time passes, then the
    // subclass drops its firmware-visible state.
    for (ResetListener &listener : resetListeners_)
        listener(*this, ResetPhase::Begin);
    onResetBegin();

    exec_.schedule(downtime, [this]() {
        resetting_ = false;
        ++resets_;
        // Complete order matters: listeners first (the Runtime
        // redeploys Offcodes, whose start() re-binds ports), then the
        // subclass (the NIC replays packets it queued while down into
        // those fresh bindings).
        for (ResetListener &listener : resetListeners_)
            listener(*this, ResetPhase::Complete);
        onResetComplete();
        LOG_INFO << name() << ": device back up (reset #" << resets_
                 << ")";
    });
}

void
scheduleChaosResets(exec::Executor &executor,
                    const std::vector<Device *> &devices)
{
    auto &engine = chaos::ChaosEngine::instance();
    if (!engine.enabled())
        return;
    for (const chaos::ScheduledReset &reset : engine.spec().resets) {
        Device *target = nullptr;
        for (Device *candidate : devices)
            if (candidate && candidate->name() == reset.device)
                target = candidate;
        if (!target) {
            LOG_WARN << "chaos: no device named '" << reset.device
                     << "'; reset skipped";
            continue;
        }
        executor.scheduleAt(reset.at, [target, at = reset.at,
                                       downtime = reset.downtime]() {
            chaos::ChaosEngine::instance().recordFault("device_reset", at);
            target->reset(downtime);
        });
    }
}

} // namespace hydra::dev
