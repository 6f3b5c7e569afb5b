#include "fleet/fleet.hh"

#include <algorithm>
#include <cstring>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "common/small_vector.hh"
#include "obs/metrics.hh"
#include "common/time.hh"

namespace hydra::fleet {

namespace {

/** Remote-transport cost constants (paper-scale: gigabit fabric). */
struct RemoteCosts
{
    /** Host/firmware cycles to build or retire one tx descriptor. */
    std::uint64_t txDescriptorCycles = 400;
    /** Endpoint-site cycles to consume one delivered frame. */
    std::uint64_t rxDescriptorCycles = 300;
    /** Sender-site cycles for a same-machine enqueue (cf. local). */
    std::uint64_t enqueueCycles = 250;
    /** Same-machine leg of a multicast: in-memory enqueue latency. */
    sim::SimTime localLatency = sim::nanoseconds(600);
};

constexpr RemoteCosts kCosts{};

/** Per-transport instruments, mirroring providers.cc's locals. */
struct RemoteMetrics
{
    obs::Counter &sent = obs::counter("channel.messages_sent",
                                      {{"transport", "remote"}});
    obs::Counter &bytes = obs::counter("channel.bytes_sent",
                                       {{"transport", "remote"}});
    obs::Counter &dropped = obs::counter("channel.messages_dropped",
                                         {{"transport", "remote"}});
    /**
     * The exactly-one wire copy per remote leg: header + body staged
     * into the frame buffer. Zero increments here would mean the wire
     * was never exercised; more than one per message is a regression
     * the fleet test asserts against.
     */
    obs::Counter &wireCopies = obs::counter(
        "channel.payload_copies", {{"buffering", "wire"}});
    /** Frames that arrived for a since-destroyed ChannelId. */
    obs::Counter &orphans = obs::counter("fleet.orphan_frames");
    /** Per-sender sequence gaps observed by receivers (loss/reorder;
     * zero on a lossless fabric — the FIFO test's invariant). */
    obs::Counter &seqGaps = obs::counter("fleet.seq_gaps");
};

RemoteMetrics &
remoteMetrics()
{
    static RemoteMetrics metrics;
    return metrics;
}

/** Count one malformed frame. Registered on the first one, so runs
 * without any export the same series in the same order. */
void
countMalformedFrame()
{
    static obs::Counter &malformed = obs::counter("fleet.malformed_frames");
    malformed.increment();
}

/** Field offsets within the wire header. */
constexpr std::size_t kChannelAt = 0;
constexpr std::size_t kFromAt = 8;
constexpr std::size_t kToAt = 12;
constexpr std::size_t kSeqAt = 16;
constexpr std::size_t kSentAtAt = 24;

/** Store @p value little-endian at @p out (compiles to one store). */
template <typename T>
void
storeLittle(std::uint8_t *out, T value)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** Load a little-endian value from @p in (compiles to one load). */
template <typename T>
T
loadLittle(const std::uint8_t *in)
{
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        value |= static_cast<T>(in[i]) << (8 * i);
    return value;
}

} // namespace

void
writeWireHeader(std::uint8_t *out, const WireHeader &header)
{
    storeLittle<std::uint64_t>(out + kChannelAt, header.channel);
    storeLittle<std::uint32_t>(out + kFromAt, header.from);
    storeLittle<std::uint32_t>(out + kToAt, header.to);
    storeLittle<std::uint64_t>(out + kSeqAt, header.seq);
    storeLittle<std::uint64_t>(out + kSentAtAt, header.sentAt);
}

bool
readWireHeader(const std::uint8_t *frame, std::size_t size, WireHeader &out)
{
    if (size < kWireHeaderBytes)
        return false;
    out.channel = loadLittle<std::uint64_t>(frame + kChannelAt);
    out.from = loadLittle<std::uint32_t>(frame + kFromAt);
    out.to = loadLittle<std::uint32_t>(frame + kToAt);
    out.seq = loadLittle<std::uint64_t>(frame + kSeqAt);
    out.sentAt = loadLittle<std::uint64_t>(frame + kSentAtAt);
    return true;
}

/**
 * Cross-machine transport: frames messages over the sender host's
 * NIC onto the shared fabric. FIFO per (sender endpoint, receiver
 * endpoint) holds structurally: one sender endpoint lives on one
 * host, its frames serialize through that host's DMA engine and
 * uplink, and the fabric delivers in order per (src, dst) node pair.
 *
 * Thread model: writeFrom may run on any driver site; delivery runs
 * on the coordinator (scheduled events). A per-channel recursive
 * mutex guards endpoints_/stats_ (a real lock on the threaded engine
 * only); recursive so a receive handler may write back into the same
 * channel synchronously.
 *
 * Routes are eager: the executive binds the id before the creator
 * connects, so each addEndpoint registers its host's route before
 * the endpoint becomes visible to writers. No frame can leave ahead
 * of its route.
 */
class RemoteChannel : public core::Channel
{
  public:
    RemoteChannel(core::ChannelConfig config, Fleet &fleet, Host &home)
        : Channel(std::move(config)), fleet_(fleet), home_(home),
          wireLimit_(fleet.config().network.maxPayload > kWireHeaderBytes
                         ? fleet.config().network.maxPayload -
                               kWireHeaderBytes
                         : 0),
          mutex_(fleet.executor())
    {
    }

    ~RemoteChannel() override
    {
        // Unroute everywhere first: after this no fabric handler can
        // reach us (removeRoute blocks on any in-flight delivery).
        for (Host *host : routedHosts_)
            host->removeRoute(id());
    }

    Status
    writeFrom(std::size_t from, Payload message) override
    {
        std::lock_guard<exec::RecursiveModelMutex> lock(mutex_);
        if (closed_)
            return Status(ErrorCode::ChannelClosed, "channel closed");
        if (from >= endpoints_.size())
            return Status(ErrorCode::OutOfRange, "bad endpoint");
        if (endpoints_.size() < 2)
            return Status(ErrorCode::ChannelNotConnected,
                          "no peer endpoint");
        if (message.size() > config_.maxMessageBytes ||
            message.size() > wireLimit_) {
            remoteMetrics().dropped.increment();
            return Status(ErrorCode::MessageTooLarge,
                          "message exceeds wire frame limit");
        }

        ++stats_.messagesSent;
        stats_.bytesSent += message.size();
        RemoteMetrics &metrics = remoteMetrics();
        metrics.sent.increment();
        metrics.bytes.add(message.size());

        const sim::SimTime sentAt = home_.machine().executor().now();
        Wire &src = wires_[from];

        for (std::size_t to = 0; to < endpoints_.size(); ++to) {
            if (to == from)
                continue;
            if (wires_[to].host == src.host) {
                sendLocalLeg(from, to, message, sentAt);
                continue;
            }
            sendWireLeg(from, to, message, sentAt);
        }
        return Status::success();
    }

  protected:
    Result<std::size_t>
    addEndpoint(core::ExecutionSite &site) override
    {
        Host *owner = fleet_.hostOf(site.machine());
        if (!owner)
            return Error(ErrorCode::InvalidArgument,
                         "site's machine is not a fleet member");
        // Route before the endpoint is visible, and outside the
        // channel lock: registration takes the host's fabric lock,
        // which delivery holds while calling back into the channel —
        // never nest the two in reverse order. Two joins may register
        // one host; the second insert rewrites the same entry.
        owner->addRoute(id(), this);
        std::lock_guard<exec::RecursiveModelMutex> lock(mutex_);
        // Recorded even if the add below fails: the destructor must
        // take down every route this channel put up.
        if (std::find(routedHosts_.begin(), routedHosts_.end(), owner) ==
            routedHosts_.end())
            routedHosts_.push_back(owner);
        auto added = Channel::addEndpoint(site);
        if (!added)
            return added;
        Wire wire;
        wire.host = owner;
        if (site.isHost())
            wire.txBuffer = owner->machine().os().allocRegion(
                config_.maxMessageBytes + kWireHeaderBytes);
        wires_.push_back(wire);
        growSeqs();
        return added;
    }

  private:
    friend class Host;

    /** Per-endpoint wire state, parallel to endpoints_. */
    struct Wire
    {
        Host *host = nullptr;
        /** Host-side tx staging region (0 for device endpoints). */
        hw::Addr txBuffer = 0;
    };

    /** Sequence state of one ordered endpoint pair (a, b). */
    struct PairSeq
    {
        /** Next sequence a sends to b. */
        std::uint64_t tx = 0;
        /** Frames a has received from b. */
        std::uint64_t rx = 0;
    };

    /** seqs_ cell of the ordered pair (a, b). */
    PairSeq &
    pairSeq(std::size_t a, std::size_t b)
    {
        return seqs_[a * wires_.size() + b];
    }

    /**
     * Re-lay seqs_ out from n x n to (n+1) x (n+1) after endpoint n
     * joined, in place. Every cell moves to an index at or above its
     * old one, so copying from the last cell down never overwrites a
     * cell still to be read; the new column and row start at zero.
     */
    void
    growSeqs()
    {
        const std::size_t n = wires_.size() - 1;
        seqs_.resize((n + 1) * (n + 1));
        for (std::size_t row = n; row-- > 0;) {
            seqs_[row * (n + 1) + n] = PairSeq{};
            for (std::size_t col = n; col-- > 0;)
                seqs_[row * (n + 1) + col] = seqs_[row * n + col];
        }
    }

    /** Same-machine leg of a multicast: zero-copy in-memory enqueue
     * (deliberately no channel.payload_copies increment — that
     * counter counts copies performed, and this path performs none).
     * The channel is resolved by id at delivery time, so a stream
     * destroyed with this leg in flight is dropped, not dereferenced. */
    void
    sendLocalLeg(std::size_t from, std::size_t to, const Payload &message,
                 sim::SimTime sentAt)
    {
        if (endpoints_[from].site)
            endpoints_[from].site->run(kCosts.enqueueCycles);
        Host *owner = wires_[from].host;
        const core::ChannelId channel = id();
        owner->machine().executor().schedule(
            kCosts.localLatency,
            [owner, channel, from, to, message, sentAt]() {
                auto *resolved = static_cast<RemoteChannel *>(
                    owner->executive().findChannel(channel));
                if (!resolved)
                    return;
                resolved->deliverLocal(to, from, message, sentAt);
            });
    }

    /** Cross-machine leg: ONE copy into the wire frame, then the
     * sender host's NIC (host path: DMA crossing; device path: pure
     * firmware) puts it on the fabric. */
    void
    sendWireLeg(std::size_t from, std::size_t to, const Payload &message,
                sim::SimTime sentAt)
    {
        Wire &src = wires_[from];
        const std::uint64_t seq = pairSeq(from, to).tx++;

        PayloadBuilder builder;
        Bytes &frame = builder.buffer();
        frame.resize(kWireHeaderBytes + message.size());
        writeWireHeader(frame.data(),
                        WireHeader{id(), static_cast<std::uint32_t>(from),
                                   static_cast<std::uint32_t>(to), seq,
                                   static_cast<std::uint64_t>(sentAt)});
        if (!message.empty())
            std::memcpy(frame.data() + kWireHeaderBytes, message.data(),
                        message.size());
        remoteMetrics().wireCopies.increment();

        net::Packet packet;
        packet.dst = wires_[to].host->node();
        packet.dstPort = endpoints_[to].site->isHost() ? kFleetHostPort
                                                       : kFleetDevicePort;
        packet.srcPort = endpoints_[from].site->isHost()
                             ? kFleetHostPort
                             : kFleetDevicePort;
        packet.seq = seq;
        packet.payload = builder.seal();

        ++stats_.busCrossings;
        if (endpoints_[from].site)
            endpoints_[from].site->run(kCosts.txDescriptorCycles);
        Status sent = endpoints_[from].site->isHost()
                          ? src.host->nic().sendFromHost(
                                std::move(packet), src.txBuffer)
                          : src.host->nic().sendFromDevice(
                                std::move(packet));
        if (!sent) {
            remoteMetrics().dropped.increment();
            ++stats_.messagesDropped;
        }
    }

    void
    deliverLocal(std::size_t to, std::size_t from, const Payload &message,
                 sim::SimTime sentAt)
    {
        std::lock_guard<exec::RecursiveModelMutex> lock(mutex_);
        if (closed_ || to >= endpoints_.size())
            return;
        deliverTo(to, message, from, sentAt);
    }

    /** Inbound frame from the owning host's fabric table (called with
     * that host's fabric lock held — see Host::onFabric). False when
     * the header names an endpoint this channel does not have. */
    bool
    deliverWire(const WireHeader &header, const Payload &body)
    {
        std::lock_guard<exec::RecursiveModelMutex> lock(mutex_);
        if (closed_)
            return true;
        const std::size_t to = header.to;
        const std::size_t from = header.from;
        if (to >= endpoints_.size() || from >= endpoints_.size())
            return false;
        std::uint64_t &seen = pairSeq(to, from).rx;
        if (header.seq != seen)
            remoteMetrics().seqGaps.increment();
        seen = header.seq + 1;
        if (endpoints_[to].site)
            endpoints_[to].site->run(kCosts.rxDescriptorCycles);
        deliverTo(to, body, from, static_cast<sim::SimTime>(header.sentAt));
        return true;
    }

    Fleet &fleet_;
    Host &home_;
    std::size_t wireLimit_;
    exec::RecursiveModelMutex mutex_;
    // Inline slots hold a unicast channel's state: two wires, a 2x2
    // sequence table and at most two routed hosts.
    SmallVector<Wire, 2> wires_;
    /** Flat n x n sequence table, n = wires_.size(); see pairSeq(). */
    SmallVector<PairSeq, 4> seqs_;
    /** Hosts whose fabric tables carry our id (dtor unregisters). */
    SmallVector<Host *, 2> routedHosts_;
};

namespace {

/** Serves cross-machine channel pairs between fleet members. */
class RemoteChannelProvider : public core::ChannelProvider
{
  public:
    RemoteChannelProvider(Fleet &fleet, Host &home)
        : fleet_(fleet), home_(home)
    {
    }

    const std::string &name() const override { return name_; }

    bool
    canServe(const core::ChannelConfig &config,
             core::ExecutionSite &creator,
             core::ExecutionSite *target) const override
    {
        (void)config;
        if (!target)
            return false; // a connectionless channel stays local
        if (&creator.machine() == &target->machine())
            return false; // intra-host belongs to local/dma-ring
        return fleet_.hostOf(creator.machine()) != nullptr &&
               fleet_.hostOf(target->machine()) != nullptr;
    }

    core::ChannelCost
    estimateCost(const core::ChannelConfig &config,
                 core::ExecutionSite &creator,
                 core::ExecutionSite *target,
                 std::size_t bytes) const override
    {
        (void)config;
        (void)creator;
        (void)target;
        const net::NetworkConfig &net = fleet_.config().network;
        core::ChannelCost cost;
        // Uplink + downlink serialization, propagation both ways, the
        // switch, and the DMA/firmware/interrupt overheads on both
        // ends (~6 us on the modeled gigabit testbed).
        cost.perMessageLatency =
            2 * sim::transferTime(bytes + kWireHeaderBytes + 42,
                                  net.linkGbps) +
            2 * net.linkLatency + net.switchLatency +
            sim::microseconds(6);
        cost.throughputGbps = net.linkGbps;
        return cost;
    }

    std::unique_ptr<core::Channel>
    create(const core::ChannelConfig &config) override
    {
        return std::make_unique<RemoteChannel>(config, fleet_, home_);
    }

  private:
    Fleet &fleet_;
    Host &home_;
    std::string name_ = "remote";
};

} // namespace

Host::Host(exec::Executor &executor, net::Network &network,
           const FleetConfig &config, std::size_t index)
    : exec_(executor), index_(index),
      name_("host" + std::to_string(index)), fabricMutex_(executor)
{
    hw::MachineConfig machineConfig = config.machine;
    machineConfig.name = name_;
    machineConfig.noiseSeed = config.seed * 1000003 + index * 131 + 1;
    if (config.quietHosts) {
        machineConfig.os.wakeupNoiseSigma = 0;
        machineConfig.os.preemptionProbability = 0.0;
        machineConfig.os.housekeepingJitterSigma = 0;
    }
    machine_ = std::make_unique<hw::Machine>(exec_, machineConfig);
    if (config.backgroundLoad)
        machine_->os().startBackgroundLoad();

    node_ = network.addNode(name_ + "-nic");
    dev::DeviceConfig nicConfig = dev::ProgrammableNic::nicDefaultConfig();
    nicConfig.name = name_ + "-nic";
    nicConfig.noiseSeed = machineConfig.noiseSeed + 7;
    nic_ = std::make_unique<dev::ProgrammableNic>(
        exec_, machine_->bus(), network, node_, nicConfig,
        config.nicCosts);

    runtime_ = std::make_unique<core::Runtime>(*machine_, config.runtime);
    Status attached = runtime_->attachDevice(*nic_);
    if (!attached) {
        LOG_DEBUG << name_
                  << ": nic attach failed: " << attached.error().describe();
    }

    driverSite_ = exec_.addSite(name_ + ".driver", name_);

    // Fabric demux: ONE device-path port and ONE host-path port per
    // host; frames carry the ChannelId, so stream count is unbounded
    // by the 16-bit port space.
    fabricRxBuffer_ = machine_->os().allocRegion(64 * 1024);
    nic_->bindDevicePort(kFleetDevicePort, [this](const net::Packet &p) {
        onFabric(p);
    });
    nic_->bindHostPort(kFleetHostPort, machine_->os(), fabricRxBuffer_,
                       [this](const net::Packet &p) { onFabric(p); });
}

Host::~Host()
{
    nic_->unbindPort(kFleetDevicePort);
    nic_->unbindPort(kFleetHostPort);
}

std::uint64_t
Host::orphanFrames() const
{
    std::lock_guard<exec::ModelMutex> lock(fabricMutex_);
    return orphans_;
}

bool
Host::routes(core::ChannelId id) const
{
    std::lock_guard<exec::ModelMutex> lock(fabricMutex_);
    return routes_.find(id) != nullptr;
}

void
Host::addRoute(core::ChannelId id, RemoteChannel *channel)
{
    std::lock_guard<exec::ModelMutex> lock(fabricMutex_);
    routes_.insert(id, channel);
}

void
Host::removeRoute(core::ChannelId id)
{
    std::lock_guard<exec::ModelMutex> lock(fabricMutex_);
    routes_.erase(id);
}

std::uint64_t
Host::malformedFrames() const
{
    std::lock_guard<exec::ModelMutex> lock(fabricMutex_);
    return malformed_;
}

void
Host::onFabric(const net::Packet &packet)
{
    WireHeader header;
    const bool framed = readWireHeader(packet.payload.data(),
                                       packet.payload.size(), header);

    // Route under the fabric lock and deliver while still holding it:
    // a concurrent destroyChannel blocks in removeRoute until we are
    // done, so the channel cannot be freed under us.
    std::lock_guard<exec::ModelMutex> lock(fabricMutex_);
    if (!framed) {
        LOG_DEBUG << name_ << ": malformed fleet frame ("
                  << packet.payload.size() << " bytes)";
        ++malformed_;
        countMalformedFrame();
        return;
    }
    RemoteChannel *const *route = routes_.find(header.channel);
    if (!route) {
        ++orphans_;
        remoteMetrics().orphans.increment();
        return;
    }
    const Payload body = packet.payload.slice(
        kWireHeaderBytes, packet.payload.size() - kWireHeaderBytes);
    if (!(*route)->deliverWire(header, body)) {
        ++malformed_;
        countMalformedFrame();
    }
}

Fleet::Fleet(exec::Executor &executor, FleetConfig config)
    : exec_(executor), config_(std::move(config))
{
    net_ = std::make_unique<net::Network>(exec_, config_.network);
    const std::size_t count = config_.hosts ? config_.hosts : 1;
    hosts_.reserve(count);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < count; ++i) {
        hosts_.push_back(
            std::make_unique<Host>(exec_, *net_, config_, i));
        names.push_back(hosts_.back()->name());
    }
    ring_.rebuild(names, config_.vnodesPerHost);
    for (auto &host : hosts_)
        for (const core::SiteInfo &info : host->runtime().placementSites())
            siteIndex_.emplace(info.site->name(), info.site);

    // Stitch the shards: one site lookup per host (the fleet's index
    // first, then the home runtime for the host-local "host" alias)
    // plus the remote provider. Site names are host-prefixed, so the
    // index finds a home site exactly where the runtime would.
    for (auto &host : hosts_) {
        host->executive().setSiteLookup(
            [this, home = &host->runtime()](const std::string &name) {
                core::ExecutionSite *site = findSite(name);
                return site ? site : home->siteByName(name);
            });
        host->executive().registerProvider(
            std::make_unique<RemoteChannelProvider>(*this, *host));
    }
}

Fleet::~Fleet()
{
    // A remote channel unroutes itself from every host it spans when
    // its shard destroys it, so close every shard while all hosts,
    // and their route tables, still exist.
    for (auto &host : hosts_)
        host->runtime_.reset();
}

Host *
Fleet::hostOf(const hw::Machine &machine)
{
    for (auto &host : hosts_)
        if (&host->machine() == &machine)
            return host.get();
    return nullptr;
}

Host &
Fleet::homeOf(std::string_view key)
{
    // The ring was built from hosts_ in order, so its index is ours.
    return *hosts_[ring_.hostFor(key)];
}

core::ExecutionSite *
Fleet::findSite(const std::string &name)
{
    if (std::string_view(name) == "host")
        return nullptr; // the generic alias never crosses hosts
    auto indexed = siteIndex_.find(name);
    if (indexed != siteIndex_.end())
        return indexed->second;
    for (auto &host : hosts_)
        if (core::ExecutionSite *site = host->runtime().siteByName(name))
            return site;
    return nullptr;
}

} // namespace hydra::fleet
