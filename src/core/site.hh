/**
 * @file
 * Execution sites: where an Offcode's thread of control runs.
 *
 * A site abstracts the differences the paper cares about — compute
 * speed, timer precision, and whether work burdens the host CPU and
 * cache. HostSite charges the host CPU through the OS model (tick-
 * quantized timers); DeviceSite charges a peripheral's firmware core
 * (microsecond-precise hardware timers).
 */

#ifndef HYDRA_CORE_SITE_HH
#define HYDRA_CORE_SITE_HH

#include <functional>
#include <string>

#include "dev/device.hh"
#include "exec/model_mutex.hh"
#include "hw/machine.hh"
#include "common/time.hh"

namespace hydra::obs {
class Histogram;
struct SiteActivitySlot;
} // namespace hydra::obs

namespace hydra::core {

/** Abstract execution locus for Offcodes. */
class ExecutionSite
{
  public:
    virtual ~ExecutionSite() = default;

    virtual const std::string &name() const = 0;
    virtual bool isHost() const = 0;

    /** Charge @p cycles of compute; returns completion time. */
    virtual sim::SimTime run(std::uint64_t cycles) = 0;

    /** Arm a timer with this site's precision semantics. */
    virtual void timerAfter(sim::SimTime delay,
                            std::function<void()> done) = 0;

    /** The peripheral behind this site, or nullptr for the host. */
    virtual dev::Device *device() = 0;

    /** The host machine this site belongs to. */
    virtual hw::Machine &machine() = 0;

    /**
     * This site's interned profiler slot (never null once a concrete
     * site is constructed); the dispatch path publishes handler
     * activity here.
     */
    obs::SiteActivitySlot *profilerSlot() const { return profilerSlot_; }

    /**
     * The `channel.delivery_latency_ns{channel, host}` series of a
     * channel named @p channel whose creator endpoint is here. A
     * one-entry cache keyed by the name answers repeated creates of
     * one stream name (churn) without the registry's label hashing
     * and lock; a miss registers or finds the series exactly as
     * obs::histogram does, so series register at the same moment and
     * in the same order. Registry handles are never freed (reset()
     * only zeroes them), so the cached pointer stays valid.
     * Thread-safe.
     */
    obs::Histogram &deliveryLatency(const std::string &channel);

  protected:
    /** @p executor decides whether the latency cache locks. */
    explicit ExecutionSite(exec::Executor &executor)
        : latencyMutex_(executor)
    {
    }

    obs::SiteActivitySlot *profilerSlot_ = nullptr;

  private:
    exec::ModelMutex latencyMutex_;
    std::string latencyChannel_;
    obs::Histogram *latencySeries_ = nullptr;
};

/** Offcode execution on the host CPU under the OS. */
class HostSite : public ExecutionSite
{
  public:
    explicit HostSite(hw::Machine &machine);

    const std::string &name() const override { return name_; }
    bool isHost() const override { return true; }
    sim::SimTime run(std::uint64_t cycles) override;
    void timerAfter(sim::SimTime delay,
                    std::function<void()> done) override;
    dev::Device *device() override { return nullptr; }
    hw::Machine &machine() override { return machine_; }

  private:
    hw::Machine &machine_;
    std::string name_;
};

/** Offcode execution on a peripheral's firmware processor. */
class DeviceSite : public ExecutionSite
{
  public:
    DeviceSite(hw::Machine &host, dev::Device &device);

    const std::string &name() const override { return device_.name(); }
    bool isHost() const override { return false; }
    sim::SimTime run(std::uint64_t cycles) override;
    void timerAfter(sim::SimTime delay,
                    std::function<void()> done) override;
    dev::Device *device() override { return &device_; }
    hw::Machine &machine() override { return host_; }

  private:
    hw::Machine &host_;
    dev::Device &device_;
};

} // namespace hydra::core

#endif // HYDRA_CORE_SITE_HH
