#include "core/providers.hh"

#include "chaos/chaos.hh"
#include "common/logging.hh"
#include "common/small_vector.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hydra::core {

namespace {

/** Per-transport send instruments (issue: latency per channel type). */
struct TransportMetrics
{
    obs::Counter &sent;
    obs::Counter &bytes;
    obs::Counter &dropped;
    obs::Histogram &latencyNs;

    explicit TransportMetrics(const char *transport)
        : sent(obs::counter("channel.messages_sent",
                            {{"transport", transport}})),
          bytes(obs::counter("channel.bytes_sent",
                             {{"transport", transport}})),
          dropped(obs::counter("channel.messages_dropped",
                               {{"transport", transport}})),
          latencyNs(obs::histogram("channel.send_latency_ns",
                                   {{"transport", transport}}))
    {
    }
};

/**
 * Message-buffer copies performed by the channel layer, by buffering
 * mode. The zero-copy counter exists so its absence of increments is
 * observable: every hop shares one refcounted Payload, so the
 * zero-copy path performs no copies per delivery (asserted by the
 * TiVo integration test). Copying mode stages a copy into the ring
 * slot on send and out of it on receive, exactly as modeled by
 * OsKernel::copyBytes.
 */
struct CopyMetrics
{
    obs::Counter &zeroCopy = obs::counter(
        "channel.payload_copies", {{"buffering", "zero-copy"}});
    obs::Counter &copying = obs::counter(
        "channel.payload_copies", {{"buffering", "copying"}});
};

CopyMetrics &
copyMetrics()
{
    static CopyMetrics metrics;
    return metrics;
}

TransportMetrics &
localMetrics()
{
    static TransportMetrics metrics("local");
    return metrics;
}

TransportMetrics &
ringMetrics()
{
    static TransportMetrics metrics("dma-ring");
    return metrics;
}

} // namespace

namespace {

/** Transport cost constants shared by the ring channel. */
struct RingCosts
{
    std::uint64_t hostDescriptorCycles = 400;
    std::uint64_t deviceDescriptorCycles = 300;
    std::uint64_t deviceRxCycles = 500;
    std::uint64_t hostRxCopySetupCycles = 250;
    sim::SimTime localLatency = sim::nanoseconds(600);
};

/** Both endpoints live on the same execution locus. */
class LocalChannel : public Channel
{
  public:
    LocalChannel(ChannelConfig config, exec::Executor &executor)
        : Channel(std::move(config)), exec_(executor)
    {
    }

    Status
    writeFrom(std::size_t from, Payload message) override
    {
        if (closed_)
            return Status(ErrorCode::ChannelClosed, "channel closed");
        if (from >= endpoints_.size())
            return Status(ErrorCode::OutOfRange, "bad endpoint");
        if (endpoints_.size() < 2)
            return Status(ErrorCode::ChannelNotConnected,
                          "no peer endpoint");
        if (message.size() > config_.maxMessageBytes)
            return Status(ErrorCode::MessageTooLarge, "message too large");
        if (chaos::ChaosEngine::instance().exhaustPool(exec_.now()))
            return Status(ErrorCode::OutOfMemory,
                          "chaos: payload pool exhausted");

        ++stats_.messagesSent;
        stats_.bytesSent += message.size();
        localMetrics().sent.increment();
        localMetrics().bytes.add(message.size());

        // Enqueue costs a little compute at the sender's site.
        if (endpoints_[from].site)
            endpoints_[from].site->run(250);

        const sim::SimTime sentAt = exec_.now();
        // Capture the sender's causal context; delivery runs later
        // from the scheduler with an empty one.
        const obs::SpanContext ctx = obs::activeContext();
        for (std::size_t ep = 0; ep < endpoints_.size(); ++ep) {
            if (ep == from)
                continue;
            // The lambda shares the sender's buffer (refcount bump);
            // every destination of a fan-out sees the same bytes.
            exec_.schedule(
                costs_.localLatency,
                [this, ep, from, sentAt, ctx,
                 msg = message]() {
                    const sim::SimTime deliveredAt = exec_.now();
                    localMetrics().latencyNs.record(deliveredAt - sentAt);
                    obs::ContextScope scope(ctx);
                    obs::Span span;
                    ExecutionSite *dst = endpoints_[ep].site;
                    if (HYDRA_TRACE_ACTIVE() && dst)
                        span.open(dst->machine().name(), dst->name(),
                                  "channel.send", "channel", sentAt);
                    span.end(deliveredAt);
                    deliverTo(ep, msg, from, sentAt, deliveredAt);
                });
        }
        return Status::success();
    }

  private:
    exec::Executor &exec_;
    RingCosts costs_;
};

/**
 * The paper's zero-copy channel: per-destination descriptor rings,
 * pre-posted buffers, device DMA, host interrupts.
 */
class RingChannel : public Channel
{
  public:
    RingChannel(ChannelConfig config, exec::Executor &executor,
                bool bus_multicast)
        : Channel(std::move(config)), exec_(executor),
          busMulticast_(bus_multicast)
    {
        // Register both buffering-mode copy counters up front so a
        // zero-copy run exports an observable 0, not an absent metric.
        copyMetrics();
    }

    Result<std::size_t>
    addEndpoint(ExecutionSite &site) override
    {
        auto index = Channel::addEndpoint(site);
        if (!index)
            return index;
        EpState state;
        if (site.isHost()) {
            // Host endpoints own ring buffers in host memory (the
            // InRing/OutRing of Fig. 6) plus a user-visible buffer
            // for Copying mode.
            hw::OsKernel &os = site.machine().os();
            state.ringBuffer = os.allocRegion(config_.ringDepth *
                                              config_.maxMessageBytes);
            state.userBuffer = os.allocRegion(config_.maxMessageBytes);
        }
        state_.push_back(std::move(state));
        return index;
    }

    Status
    writeFrom(std::size_t from, Payload message) override
    {
        if (closed_)
            return Status(ErrorCode::ChannelClosed, "channel closed");
        if (from >= endpoints_.size())
            return Status(ErrorCode::OutOfRange, "bad endpoint");
        if (endpoints_.size() < 2)
            return Status(ErrorCode::ChannelNotConnected,
                          "no peer endpoint");
        if (message.size() > config_.maxMessageBytes)
            return Status(ErrorCode::MessageTooLarge, "message too large");
        if (chaos::ChaosEngine::instance().exhaustPool(exec_.now()))
            return Status(ErrorCode::OutOfMemory,
                          "chaos: payload pool exhausted");

        ++stats_.messagesSent;
        stats_.bytesSent += message.size();
        ringMetrics().sent.increment();
        ringMetrics().bytes.add(message.size());
        const sim::SimTime sentAt = exec_.now();

        // Sender-side descriptor preparation.
        ExecutionSite *src = endpoints_[from].site;
        if (src->isHost()) {
            hw::Machine &machine = src->machine();
            machine.cpu().runCycles(costs_.hostDescriptorCycles);
            if (config_.buffering == ChannelConfig::Buffering::Copying) {
                // Staged copy into the ring slot (pollutes L2).
                copyMetrics().copying.increment();
                EpState &st = state_[from];
                const hw::Addr slot =
                    st.ringBuffer +
                    st.slot * config_.maxMessageBytes;
                st.slot = (st.slot + 1) % config_.ringDepth;
                machine.os().copyBytes(st.userBuffer, slot,
                                       message.size());
            }
        } else {
            src->run(costs_.deviceDescriptorCycles);
        }

        // One multicast bus transaction can cover all device
        // destinations when the fabric supports it.
        const obs::SpanContext ctx = obs::activeContext();
        bool sharedCrossingCharged = false;
        for (std::size_t ep = 0; ep < endpoints_.size(); ++ep) {
            if (ep == from)
                continue;
            const bool charge =
                !busMulticast_ || !sharedCrossingCharged ||
                endpoints_[ep].site->isHost();
            transport(from, ep, message, charge, sentAt, ctx);
            if (!endpoints_[ep].site->isHost())
                sharedCrossingCharged = true;
        }
        return Status::success();
    }

  private:
    /** A write waiting for a free descriptor at its destination. */
    struct BacklogEntry
    {
        std::size_t from = 0;
        Payload message; ///< shares the sender's buffer
        sim::SimTime sentAt = 0;
        obs::SpanContext ctx;
    };

    struct EpState
    {
        std::size_t inFlight = 0;
        Fifo<BacklogEntry> backlog;
        hw::Addr ringBuffer = 0;
        hw::Addr userBuffer = 0;
        std::size_t slot = 0;
    };

    /**
     * Move one message from endpoint @p from to @p to. It takes a free
     * descriptor of the destination's ring if there is one; otherwise
     * it backpressures into the backlog (reliable) or drops
     * (unreliable).
     */
    void
    transport(std::size_t from, std::size_t to, const Payload &message,
              bool charge_bus, sim::SimTime sent_at,
              const obs::SpanContext &ctx)
    {
        EpState &dst_state = state_[to];
        bool full = dst_state.inFlight >= config_.ringDepth;
        // Chaos: pretend the consumer has not freed any descriptors
        // this cycle. Only legal while completions are in flight —
        // the backlog drains exclusively from completeDelivery(), so
        // an empty ring forced shut would never reopen.
        if (!full && dst_state.inFlight > 0 &&
            chaos::ChaosEngine::instance().overflowRing(exec_.now()))
            full = true;
        if (full) {
            if (config_.reliable) {
                dst_state.backlog.push_back(
                    BacklogEntry{from, message, sent_at, ctx});
            } else {
                ++stats_.messagesDropped;
                ringMetrics().dropped.increment();
            }
            return;
        }
        ++dst_state.inFlight;
        startDma(from, to, message, charge_bus, sent_at, ctx);
    }

    void
    startDma(std::size_t from, std::size_t to, Payload message,
             bool charge_bus, sim::SimTime sent_at,
             const obs::SpanContext &ctx)
    {
        ExecutionSite *src = endpoints_[from].site;
        ExecutionSite *dst = endpoints_[to].site;
        const std::size_t bytes = message.size();

        // The completion closure holds a reference, not a copy.
        auto finish = [this, from, to, sent_at, ctx,
                       msg = std::move(message)]() {
            completeDelivery(from, to, msg, sent_at, ctx);
        };

        // Pick the bus-mastering engine: the device side of the pair.
        dev::Device *engineOwner =
            src->device() ? src->device() : dst->device();

        if (!engineOwner) {
            // Host-to-host ring: no bus, a kernel handoff.
            src->machine().cpu().runCycles(costs_.hostRxCopySetupCycles);
            exec_.schedule(costs_.localLatency, std::move(finish));
            return;
        }
        if (!charge_bus) {
            // Covered by a multicast transaction charged already.
            exec_.schedule(sim::microseconds(1), std::move(finish));
            return;
        }
        ++stats_.busCrossings;
        engineOwner->dma().start(bytes, std::move(finish));
    }

    void
    completeDelivery(std::size_t from, std::size_t to,
                     const Payload &message, sim::SimTime sent_at,
                     const obs::SpanContext &ctx)
    {
        ExecutionSite *dst = endpoints_[to].site;

        ringMetrics().latencyNs.record(exec_.now() - sent_at);
        obs::ContextScope scope(ctx);
        obs::Span span;
        if (HYDRA_TRACE_ACTIVE() && dst)
            span.open(dst->machine().name(), dst->name(),
                      "channel.send", "channel", sent_at);

        if (dst->isHost()) {
            hw::Machine &machine = dst->machine();
            EpState &dst_state = state_[to];
            const hw::Addr slot =
                dst_state.ringBuffer +
                dst_state.slot * config_.maxMessageBytes;
            dst_state.slot = (dst_state.slot + 1) % config_.ringDepth;
            machine.os().dmaDelivered(slot, message.size());
            if (config_.buffering == ChannelConfig::Buffering::Copying) {
                // Copy out of the ring into the user buffer.
                copyMetrics().copying.increment();
                machine.os().copyBytes(slot, dst_state.userBuffer,
                                       message.size());
            }
            machine.os().handleInterrupt();
        } else {
            dst->run(costs_.deviceRxCycles);
        }

        // The clock may have advanced past the entry read (device RX
        // cycles, interrupt handling); stamp delivery at this instant
        // and hand it down so the channel needn't re-read the clock.
        const sim::SimTime deliveredAt = exec_.now();
        span.end(deliveredAt);
        deliverTo(to, message, from, sent_at, deliveredAt);

        // The descriptor is recycled; refill free descriptors from the
        // backlog in order. Each launch is taken out of the backlog
        // first, so no reference into the backlog is live across
        // startDma.
        EpState &dst_state = state_[to];
        if (dst_state.inFlight > 0)
            --dst_state.inFlight;
        while (!dst_state.backlog.empty() &&
               dst_state.inFlight < config_.ringDepth) {
            BacklogEntry launch = std::move(dst_state.backlog.front());
            dst_state.backlog.pop_front();
            ++dst_state.inFlight;
            startDma(launch.from, to, std::move(launch.message), true,
                     launch.sentAt, launch.ctx);
        }
    }

    exec::Executor &exec_;
    bool busMulticast_;
    RingCosts costs_;
    /** Parallel to endpoints_; inline for a unicast channel. */
    SmallVector<EpState, 2> state_;
};

} // namespace

LocalChannelProvider::LocalChannelProvider(exec::Executor &executor)
    : exec_(executor)
{
}

bool
LocalChannelProvider::canServe(const ChannelConfig &config,
                               ExecutionSite &creator,
                               ExecutionSite *target) const
{
    (void)config;
    if (!target)
        return true; // connectionless until attached
    return target == &creator ||
           (creator.isHost() && target->isHost() &&
            &creator.machine() == &target->machine());
}

ChannelCost
LocalChannelProvider::estimateCost(const ChannelConfig &config,
                                   ExecutionSite &creator,
                                   ExecutionSite *target,
                                   std::size_t bytes) const
{
    (void)config;
    (void)creator;
    (void)target;
    (void)bytes;
    return ChannelCost{sim::nanoseconds(800), 40.0};
}

std::unique_ptr<Channel>
LocalChannelProvider::create(const ChannelConfig &config)
{
    return std::make_unique<LocalChannel>(config, exec_);
}

DmaRingChannelProvider::DmaRingChannelProvider(exec::Executor &executor,
                                               bool bus_multicast)
    : exec_(executor), busMulticast_(bus_multicast)
{
}

bool
DmaRingChannelProvider::canServe(const ChannelConfig &config,
                                 ExecutionSite &creator,
                                 ExecutionSite *target) const
{
    (void)config;
    if (!target)
        return true; // connectionless until attached
    // The ring transport spans any site pair on ONE machine: the
    // descriptor rings and DMA engine live on the creator's bus.
    // Cross-machine pairs belong to the fleet's remote provider.
    return &creator.machine() == &target->machine();
}

ChannelCost
DmaRingChannelProvider::estimateCost(const ChannelConfig &config,
                                     ExecutionSite &creator,
                                     ExecutionSite *target,
                                     std::size_t bytes) const
{
    ChannelCost cost;
    const bool crossing =
        !target || target->device() != creator.device() ||
        creator.device() == nullptr;
    cost.perMessageLatency =
        crossing ? sim::microseconds(6) : sim::microseconds(1);
    cost.throughputGbps = creator.machine().bus().bandwidthGbps();
    if (config.buffering == ChannelConfig::Buffering::Copying)
        cost.perMessageLatency += sim::nanoseconds(bytes);
    return cost;
}

std::unique_ptr<Channel>
DmaRingChannelProvider::create(const ChannelConfig &config)
{
    return std::make_unique<RingChannel>(config, exec_, busMulticast_);
}

} // namespace hydra::core
