/**
 * @file
 * Channels (paper Sections 3.2 and 4.1): bidirectional pathways
 * interconnecting Offcodes and OA-applications.
 *
 * A channel is created in two steps, mirroring the paper's API:
 * the creator configures and creates its own endpoint (index 0),
 * then attaches Offcodes with connectOffcode(), which implicitly
 * constructs an endpoint at the target's site and notifies the
 * Offcode. Delivery invokes the endpoint's installed handler, or
 * queues for poll() when none is installed.
 */

#ifndef HYDRA_CORE_CHANNEL_HH
#define HYDRA_CORE_CHANNEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hh"
#include "common/fifo.hh"
#include "common/payload.hh"
#include "common/result.hh"
#include "common/small_vector.hh"
#include "core/site.hh"
#include "obs/span.hh"

namespace hydra::obs {
class Histogram;
} // namespace hydra::obs

namespace hydra::core {

class Offcode;
class Channel;

/**
 * Process-wide channel identity, assigned by the executive shard that
 * owns the channel. Ids are unique across shards (one shared
 * allocator), so fleet routing tables key on the id alone without a
 * (host, id) pair. 0 is never assigned.
 */
using ChannelId = std::uint64_t;
inline constexpr ChannelId kInvalidChannel = 0;

/** Channel configuration (paper Fig. 3). */
struct ChannelConfig
{
    enum class Type : std::uint8_t { Unicast, Multicast };
    enum class Sync : std::uint8_t { Sequential, Concurrent };
    enum class Buffering : std::uint8_t { ZeroCopy, Copying };

    Type type = Type::Unicast;
    bool reliable = true;
    /**
     * Delivery synchronization. The event-driven model executes one
     * handler at a time, so Sequential ordering is what both modes
     * provide today; Concurrent is accepted for API compatibility
     * with the paper's configuration surface.
     */
    Sync sync = Sync::Sequential;
    Buffering buffering = Buffering::ZeroCopy;

    /** Pre-posted descriptors per direction (paper Fig. 6 rings). */
    std::size_t ringDepth = 64;
    std::size_t maxMessageBytes = 64 * 1024;

    /** Target site name, as returned by Offcode GetDeviceAddr. */
    std::string targetDevice;

    /**
     * Display name for telemetry. A named channel records per-channel
     * delivery latency into `channel.delivery_latency_ns{channel=name}`
     * (write timestamp -> handler/poll); anonymous channels only feed
     * the per-transport aggregate, which bounds registry growth.
     */
    std::string name;
};

/** Per-channel delivery statistics. */
struct ChannelStats
{
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesDelivered = 0;
    std::uint64_t messagesDropped = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t busCrossings = 0;
};

/** A (channel, endpoint index) pair — what an Offcode holds. */
struct ChannelHandle
{
    Channel *channel = nullptr;
    std::size_t endpoint = 0;

    bool valid() const { return channel != nullptr; }
    Status write(Payload message);
    void install(std::function<void(const Payload &)> handler);
};

/** Abstract channel; concrete transports live in providers.cc. */
class Channel
{
  public:
    /** Handler receives (message, sender endpoint index). */
    using Handler = std::function<void(const Payload &, std::size_t)>;

    explicit Channel(ChannelConfig config);
    virtual ~Channel();

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    const ChannelConfig &config() const { return config_; }
    const ChannelStats &stats() const { return stats_; }
    std::size_t numEndpoints() const { return endpoints_.size(); }

    /** Executive-assigned id; kInvalidChannel until owned by a shard. */
    ChannelId id() const { return id_; }

    /** Called once by the owning executive shard, before the creator
     * endpoint connects. */
    void bindId(ChannelId id) { id_ = id; }

    /** Creator-side write (endpoint 0), as in the paper's examples. */
    Status write(Payload message)
    {
        return writeFrom(0, std::move(message));
    }

    /**
     * Write from any endpoint; delivered to every other endpoint.
     * The message is a shared immutable buffer: every destination,
     * scheduled lambda, and backlog entry holds a reference to the
     * same bytes — nothing on the path may mutate them.
     */
    virtual Status writeFrom(std::size_t endpoint, Payload message) = 0;

    /** Install a dispatch handler at the creator endpoint. */
    void installCallHandler(Handler handler)
    {
        installHandler(0, std::move(handler));
    }

    void installHandler(std::size_t endpoint, Handler handler);

    /** Non-blocking read of a queued message (no handler installed). */
    Result<Payload> poll(std::size_t endpoint);

    /**
     * Attach an Offcode: constructs its endpoint at the Offcode's
     * site, installs the default Call-dispatch handler, and notifies
     * the Offcode (paper: ConnectOffcode).
     */
    Status connectOffcode(Offcode &offcode);

    /**
     * Create the creator endpoint (index 0). The executive calls it
     * after binding the id; a channel built straight from a provider
     * calls it before attaching anything else.
     */
    Status connectCreator(ExecutionSite &site);

    /**
     * Attach a bare endpoint at @p site — no Offcode, no default
     * dispatch; the caller installs a handler or polls. Fleet load
     * generators and tests use this to stand up high-fan-out stream
     * endpoints without deploying Offcodes. Returns the endpoint
     * index.
     */
    Result<std::size_t> connectSite(ExecutionSite &site)
    {
        return addEndpoint(site);
    }

    /**
     * Quiesce every endpoint attached to @p offcode: the dispatch
     * handler comes off, so inbound messages queue instead of
     * reaching the (dying) instance. The endpoint keeps its Offcode
     * association so a later rebindOffcode() can find it. Returns the
     * number of endpoints detached.
     */
    std::size_t detachOffcode(const Offcode &offcode);

    /**
     * Hand every endpoint attached to @p from over to @p to: the
     * endpoint's Offcode pointer swaps, @p to is notified
     * (onChannelConnected), and the default dispatch handler is
     * reinstalled — which drains the backlog that queued during the
     * outage into the new instance, in order. This is the channel
     * re-bind step of restart-with-state-handoff. Returns the number
     * of endpoints rebound.
     */
    std::size_t rebindOffcode(const Offcode &from, Offcode &to);

    /** Close the channel; subsequent writes fail ChannelClosed. */
    void close();
    bool closed() const { return closed_; }

    /** The site an endpoint executes at (nullptr if out of range). */
    ExecutionSite *siteOf(std::size_t endpoint) const;

    /** Messages queued (no handler yet) for @p offcode's endpoints. */
    std::size_t queuedFor(const Offcode &offcode) const;

  protected:
    /** A queued message plus the causal context it arrived under. */
    struct Queued
    {
        Payload message;
        obs::SpanContext ctx;
        /** Virtual time the sender wrote the message. */
        sim::SimTime sentAt = 0;
    };

    struct Endpoint
    {
        ExecutionSite *site = nullptr;
        Offcode *offcode = nullptr; ///< set for connectOffcode endpoints
        Handler handler;
        Fifo<Queued> queue;
    };

    /** Register an endpoint; providers may veto cross-site layouts. */
    virtual Result<std::size_t> addEndpoint(ExecutionSite &site);

    /**
     * Final delivery into handler or queue (updates stats).
     * @p sentAt is the write timestamp; a named channel resolves it
     * here (handler) or at poll() time into its latency histogram.
     * @p deliveredAt is the transport's already-computed clock value
     * (0 = unknown): passing it keeps the hot path free of a second
     * executor clock read, which matters on the sub-microsecond
     * zero-copy path (check.sh's <5% channel overhead gate).
     */
    void deliverTo(std::size_t endpoint, const Payload &message,
                   std::size_t from, sim::SimTime sentAt,
                   sim::SimTime deliveredAt = 0);

    /** Default dispatch for Offcode endpoints (Calls, Data, Mgmt). */
    void dispatchToOffcode(std::size_t endpoint, const Payload &message,
                           std::size_t from);

    /** Record send->deliver latency for a named channel; resolves the
     * clock itself when @p deliveredAt is 0 (queued/polled paths). */
    void recordDelivery(const Endpoint &ep, sim::SimTime sentAt,
                        sim::SimTime deliveredAt = 0);

    ChannelConfig config_;
    ChannelStats stats_;
    /** Two inline slots: a unicast channel never allocates here. */
    SmallVector<Endpoint, 2> endpoints_;
    /** Atomic: a fleet driver thread may close (via the executive's
     * destroy path) while the coordinator is mid-delivery. */
    std::atomic<bool> closed_{false};
    ChannelId id_ = kInvalidChannel;
    /**
     * Cached registry handle; nullptr for anonymous channels. Bound
     * lazily at the first endpoint so the series carries the creator's
     * host= label (the machine the creator endpoint executes on).
     */
    obs::Histogram *deliveryLatency_ = nullptr;
};

} // namespace hydra::core

#endif // HYDRA_CORE_CHANNEL_HH
