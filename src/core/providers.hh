/**
 * @file
 * Channel providers (paper Section 4): target-specific factories
 * that build channels to a device and advertise a cost metric (the
 * "price" of communicating through them) which the Channel
 * Executive uses to pick the best provider for an Offcode.
 *
 * Two providers are built in:
 *  - LocalChannelProvider: both endpoints share a site; delivery is
 *    an in-memory enqueue.
 *  - DmaRingChannelProvider: the paper's Fig. 6 transport — per-
 *    endpoint descriptor rings, device DMA bus-mastering, host
 *    interrupts, zero-copy or staged-copy buffering.
 */

#ifndef HYDRA_CORE_PROVIDERS_HH
#define HYDRA_CORE_PROVIDERS_HH

#include <memory>
#include <string>

#include "core/channel.hh"
#include "exec/executor.hh"

namespace hydra::core {

/** Advertised cost of moving one message through a provider. */
struct ChannelCost
{
    sim::SimTime perMessageLatency = 0;
    double throughputGbps = 0.0;
};

/** Abstract provider: capability test, cost metric, factory. */
class ChannelProvider
{
  public:
    virtual ~ChannelProvider() = default;

    virtual const std::string &name() const = 0;

    /** Can this provider serve a channel from @p creator to target? */
    virtual bool canServe(const ChannelConfig &config,
                          ExecutionSite &creator,
                          ExecutionSite *target) const = 0;

    /** Cost estimate for a typical message of @p bytes. */
    virtual ChannelCost estimateCost(const ChannelConfig &config,
                                     ExecutionSite &creator,
                                     ExecutionSite *target,
                                     std::size_t bytes) const = 0;

    /**
     * Build a channel with no endpoints. The executive binds its id
     * and then connects the creator (Channel::connectCreator), so a
     * transport that routes by id knows the id at every connect.
     */
    virtual std::unique_ptr<Channel> create(const ChannelConfig &config) = 0;
};

/** Same-site transport. */
class LocalChannelProvider : public ChannelProvider
{
  public:
    explicit LocalChannelProvider(exec::Executor &executor);

    const std::string &name() const override { return name_; }
    bool canServe(const ChannelConfig &config, ExecutionSite &creator,
                  ExecutionSite *target) const override;
    ChannelCost estimateCost(const ChannelConfig &config,
                             ExecutionSite &creator, ExecutionSite *target,
                             std::size_t bytes) const override;
    std::unique_ptr<Channel> create(const ChannelConfig &config) override;

  private:
    exec::Executor &exec_;
    std::string name_ = "local";
};

/** Cross-site DMA descriptor-ring transport (paper Fig. 6). */
class DmaRingChannelProvider : public ChannelProvider
{
  public:
    /**
     * @param bus_multicast When true, one bus transaction reaches
     * every device endpoint of a multicast write (the paper's PCIe
     * aside); otherwise each device leg is a separate crossing.
     */
    DmaRingChannelProvider(exec::Executor &executor, bool bus_multicast);

    const std::string &name() const override { return name_; }
    bool canServe(const ChannelConfig &config, ExecutionSite &creator,
                  ExecutionSite *target) const override;
    ChannelCost estimateCost(const ChannelConfig &config,
                             ExecutionSite &creator, ExecutionSite *target,
                             std::size_t bytes) const override;
    std::unique_ptr<Channel> create(const ChannelConfig &config) override;

  private:
    exec::Executor &exec_;
    bool busMulticast_;
    std::string name_ = "dma-ring";
};

} // namespace hydra::core

#endif // HYDRA_CORE_PROVIDERS_HH
