/**
 * @file
 * The Channel Executive (paper Section 4): owns channel providers,
 * selects the best provider for a requested channel using their
 * advertised cost metrics, and owns the resulting channels.
 *
 * Fleet model (DESIGN.md §14): one executive instance is one *shard*
 * — every host runs its own, owning exactly the channels created on
 * that host. Shards are independently locked, so channel churn on one
 * host never contends with another host's. The registry is a flat
 * IdTable keyed by ChannelId (common/id_table.hh): ids come from one
 * ascending counter, so churn — destroy the oldest id, create the
 * newest — walks neighbouring slots instead of a node-based map's
 * scattered heap nodes, and destroyChannelById is O(1). Id 0
 * (kInvalidChannel) is never owned: findChannel(0) is nullptr and
 * destroyChannelById(0) is NotFound. Targets resolve through one
 * site lookup; fleet::Fleet replaces it with one that also finds
 * other hosts' sites, served by a provider that frames messages over
 * NIC/network packets.
 */

#ifndef HYDRA_CORE_EXECUTIVE_HH
#define HYDRA_CORE_EXECUTIVE_HH

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/id_table.hh"
#include "core/providers.hh"
#include "exec/model_mutex.hh"

namespace hydra::obs {
class Counter;
} // namespace hydra::obs

namespace hydra::core {

/** Creates channels through the cheapest capable provider. */
class ChannelExecutive
{
  public:
    /**
     * @param executor The engine the channels run on; the shard locks
     * its registry only where that engine runs posts concurrently.
     * @param site_lookup Resolves a targetDevice name to a site.
     * @param shard Host this shard serves (metric label; "host" for
     * standalone runtimes).
     */
    ChannelExecutive(
        exec::Executor &executor,
        std::function<ExecutionSite *(const std::string &)> site_lookup,
        std::string shard = "host");

    void registerProvider(std::unique_ptr<ChannelProvider> provider);

    /**
     * Replace the site lookup that resolves config.targetDevice — the
     * fleet installs one that resolves every host's sites. Set during
     * fleet bring-up, before channels are created.
     */
    void setSiteLookup(
        std::function<ExecutionSite *(const std::string &)> lookup);

    /**
     * Create a channel with its creator endpoint at @p creator.
     * Provider selection uses config.targetDevice (may be empty for
     * channels attached later) and a typical message size hint. The
     * id is allocated and bound before the creator connects, so every
     * endpoint of the channel joins under its final id.
     * Thread-safe: shards accept concurrent creates (the fleet's
     * per-host drivers churn streams in parallel).
     */
    Result<Channel *> createChannel(const ChannelConfig &config,
                                    ExecutionSite &creator,
                                    std::size_t typical_bytes = 1024);

    /** Destroy a channel created by this shard. A stale pointer is
     * NotFound, never dereferenced, so this scans the shard; churn
     * paths destroy by id. */
    Status destroyChannel(Channel *channel);

    /** Destroy by id (what a routing table stores). O(1): the
     * registry is keyed by the channel's id. Id 0 is NotFound. */
    Status destroyChannelById(ChannelId id);

    /** Look up an owned channel by id; nullptr when not this shard's. */
    Channel *findChannel(ChannelId id) const;

    /**
     * Restart support (firmware OS hardening). detachOffcode
     * quiesces every channel endpoint attached to @p offcode (inbound
     * messages queue); rebindOffcode hands them to a successor
     * instance and replays the queued backlog; queuedFor reports the
     * backlog held for a (possibly wedged) Offcode across all owned
     * channels. detachOffcode and rebindOffcode snapshot the channel
     * set under the shard lock, in ascending id order (creation
     * order), and then operate unlocked — handler drains may re-enter
     * the executive (an Offcode's onChannelConnected may create
     * channels), and the shard mutex is not recursive.
     */
    std::size_t detachOffcode(const Offcode &offcode);
    std::size_t rebindOffcode(const Offcode &from, Offcode &to);
    std::size_t queuedFor(const Offcode &offcode) const;

    std::vector<std::string> providerNames() const;

    /**
     * Channels currently alive in this shard. Exact: failed creates
     * (no capable provider, or a creator endpoint that could not
     * connect) are not counted, and destroys decrement.
     */
    std::size_t activeChannels() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    const std::string &shardName() const { return shard_; }

  private:
    /** Owned channels in ascending id order, taken under the lock. */
    std::vector<Channel *> snapshot() const;

    std::function<ExecutionSite *(const std::string &)> siteLookup_;
    /** A provider plus its `channel.created{provider=...}` handle,
     * bound at the provider's first create (so series register in
     * the same order as an uncached lookup would) and read and
     * written atomically: shards accept concurrent creates. */
    struct ProviderSlot
    {
        std::unique_ptr<ChannelProvider> provider;
        std::atomic<obs::Counter *> created{nullptr};
    };
    /** A deque: emplace_back never moves a slot (atomics can't). */
    std::deque<ProviderSlot> providers_;

    /** Guards channels_ and writes of active_; providers are
     * registered at bring-up only. */
    mutable exec::ModelMutex mutex_;
    IdTable<std::unique_ptr<Channel>> channels_;
    /** Written under mutex_, read lock-free. */
    std::atomic<std::size_t> active_{0};
    std::string shard_;
};

} // namespace hydra::core

#endif // HYDRA_CORE_EXECUTIVE_HH
