#include "core/executive.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace hydra::core {

namespace {

/** Process-wide id allocator: ids stay unique across shards, so a
 * fleet-level routing table can key on ChannelId alone. Id 0 is
 * reserved as kInvalidChannel. */
std::atomic<ChannelId> nextChannelId{1};

} // namespace

ChannelExecutive::ChannelExecutive(
    exec::Executor &executor,
    std::function<ExecutionSite *(const std::string &)> site_lookup,
    std::string shard)
    : siteLookup_(std::move(site_lookup)), mutex_(executor),
      shard_(std::move(shard))
{
}

void
ChannelExecutive::registerProvider(std::unique_ptr<ChannelProvider> provider)
{
    providers_.emplace_back().provider = std::move(provider);
}

void
ChannelExecutive::setRemoteSiteLookup(
    std::function<ExecutionSite *(const std::string &)> lookup)
{
    remoteLookup_ = std::move(lookup);
}

Result<Channel *>
ChannelExecutive::createChannel(const ChannelConfig &config,
                                ExecutionSite &creator,
                                std::size_t typical_bytes)
{
    if (providers_.empty())
        return Error(ErrorCode::NotFound, "no channel providers");

    ExecutionSite *target = nullptr;
    if (!config.targetDevice.empty()) {
        target = siteLookup_(config.targetDevice);
        if (!target && remoteLookup_)
            target = remoteLookup_(config.targetDevice);
        if (!target)
            return Error(ErrorCode::NotFound,
                         "unknown target device: " + config.targetDevice);
    }

    // Pick the capable provider with the lowest per-message latency
    // (the "price" in the paper's terms).
    ProviderSlot *slot = nullptr;
    ChannelCost bestCost;
    for (ProviderSlot &candidate : providers_) {
        ChannelProvider &provider = *candidate.provider;
        if (!provider.canServe(config, creator, target))
            continue;
        const ChannelCost cost =
            provider.estimateCost(config, creator, target, typical_bytes);
        if (!slot || cost.perMessageLatency < bestCost.perMessageLatency) {
            slot = &candidate;
            bestCost = cost;
        }
    }
    if (!slot) {
        obs::counter("channel.create_failed").increment();
        return Error(ErrorCode::Unsupported,
                     "no provider can serve this channel configuration");
    }

    ChannelProvider *best = slot->provider.get();
    std::unique_ptr<Channel> channel = best->create(config);
    if (!channel) {
        obs::counter("channel.create_failed").increment();
        return Error(ErrorCode::Internal,
                     "provider '" + best->name() + "' produced no channel");
    }
    // Id first: a transport that routes by id registers each
    // endpoint's route as the endpoint connects, the creator's too.
    const ChannelId id =
        nextChannelId.fetch_add(1, std::memory_order_relaxed);
    channel->bindId(id);
    // The creator endpoint may be vetoed (a transport that cannot
    // place it). Owning such a channel would leave it unusable and
    // inflating activeChannels() forever.
    Status connected = channel->connectCreator(creator);
    if (!connected) {
        obs::counter("channel.create_failed").increment();
        return Error(ErrorCode::Internal,
                     "provider '" + best->name() +
                         "' could not connect the creator: " +
                         connected.error().describe());
    }

    obs::Counter *created = slot->created.load(std::memory_order_acquire);
    if (!created) {
        // Racing first creates bind the same registry handle.
        created = &obs::counter("channel.created",
                                {{"provider", best->name()}});
        slot->created.store(created, std::memory_order_release);
    }
    created->increment();

    LOG_DEBUG << "executive[" << shard_ << "]: provider '" << best->name()
              << "' selected for channel to '" << config.targetDevice
              << "'";

    Channel *raw = channel.get();
    {
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        channels_.insert(id, std::move(channel));
        active_.store(active_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    }
    return raw;
}

Status
ChannelExecutive::destroyChannel(Channel *channel)
{
    if (!channel)
        return Status(ErrorCode::InvalidArgument, "null channel");
    // The pointer may be stale (already destroyed): find it among the
    // owned channels before touching it.
    ChannelId id = kInvalidChannel;
    {
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        channels_.forEach(
            [&](ChannelId owned, const std::unique_ptr<Channel> &held) {
                if (held.get() == channel)
                    id = owned;
            });
    }
    return destroyChannelById(id);
}

Status
ChannelExecutive::destroyChannelById(ChannelId id)
{
    std::unique_ptr<Channel> owned;
    {
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        if (!channels_.erase(id, &owned))
            return Status(ErrorCode::NotFound,
                          "channel not owned by executive");
        active_.store(active_.load(std::memory_order_relaxed) - 1,
                      std::memory_order_relaxed);
    }
    // Close (and free) outside the lock: close() may touch sites and
    // metrics, none of which need the registry serialized.
    owned->close();
    static obs::Counter &destroyed = obs::counter("channel.destroyed");
    destroyed.increment();
    return Status::success();
}

Channel *
ChannelExecutive::findChannel(ChannelId id) const
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    const std::unique_ptr<Channel> *owned = channels_.find(id);
    return owned ? owned->get() : nullptr;
}

std::vector<Channel *>
ChannelExecutive::snapshot() const
{
    std::vector<Channel *> channels;
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    channels.reserve(channels_.size());
    channels_.forEach([&](ChannelId, const std::unique_ptr<Channel> &owned) {
        channels.push_back(owned.get());
    });
    // Slot order depends on the table's capacity; id order does not.
    std::sort(channels.begin(), channels.end(),
              [](const Channel *a, const Channel *b) {
                  return a->id() < b->id();
              });
    return channels;
}

std::size_t
ChannelExecutive::detachOffcode(const Offcode &offcode)
{
    std::size_t detached = 0;
    for (Channel *channel : snapshot())
        detached += channel->detachOffcode(offcode);
    return detached;
}

std::size_t
ChannelExecutive::rebindOffcode(const Offcode &from, Offcode &to)
{
    std::size_t rebound = 0;
    for (Channel *channel : snapshot())
        rebound += channel->rebindOffcode(from, to);
    return rebound;
}

std::size_t
ChannelExecutive::queuedFor(const Offcode &offcode) const
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    std::size_t queued = 0;
    channels_.forEach(
        [&](ChannelId, const std::unique_ptr<Channel> &channel) {
            queued += channel->queuedFor(offcode);
        });
    return queued;
}

std::vector<std::string>
ChannelExecutive::providerNames() const
{
    std::vector<std::string> names;
    names.reserve(providers_.size());
    for (const ProviderSlot &slot : providers_)
        names.push_back(slot.provider->name());
    return names;
}

} // namespace hydra::core
