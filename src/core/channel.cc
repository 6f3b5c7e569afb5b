#include "core/channel.hh"

#include "common/logging.hh"
#include "core/call.hh"
#include "core/offcode.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"

namespace hydra::core {

Status
ChannelHandle::write(Payload message)
{
    if (!channel)
        return Status(ErrorCode::ChannelNotConnected, "null handle");
    return channel->writeFrom(endpoint, std::move(message));
}

Channel::Channel(ChannelConfig config) : config_(std::move(config))
{
}

Channel::~Channel() = default;

void
Channel::recordDelivery(const Endpoint &ep, sim::SimTime sentAt,
                        sim::SimTime deliveredAt)
{
    if (!deliveryLatency_ || !ep.site)
        return;
    if (deliveredAt == 0)
        deliveredAt = ep.site->machine().executor().now();
    deliveryLatency_->record(deliveredAt >= sentAt ? deliveredAt - sentAt
                                                   : 0);
}

void
Channel::installHandler(std::size_t endpoint, Handler handler)
{
    if (endpoint >= endpoints_.size())
        return;
    Endpoint &ep = endpoints_[endpoint];
    ep.handler = std::move(handler);
    // Drain anything queued before the handler arrived, each message
    // under the causal context it was delivered with.
    while (ep.handler && !ep.queue.empty()) {
        Queued queued = std::move(ep.queue.front());
        ep.queue.pop_front();
        recordDelivery(ep, queued.sentAt);
        obs::ContextScope scope(queued.ctx);
        ep.handler(queued.message, SIZE_MAX);
    }
}

ExecutionSite *
Channel::siteOf(std::size_t endpoint) const
{
    return endpoint < endpoints_.size() ? endpoints_[endpoint].site
                                        : nullptr;
}

std::size_t
Channel::queuedFor(const Offcode &offcode) const
{
    std::size_t total = 0;
    for (const Endpoint &ep : endpoints_)
        if (ep.offcode == &offcode)
            total += ep.queue.size();
    return total;
}

Result<std::size_t>
Channel::addEndpoint(ExecutionSite &site)
{
    if (closed_)
        return Error(ErrorCode::ChannelClosed, "channel closed");
    if (config_.type == ChannelConfig::Type::Unicast &&
        endpoints_.size() >= 2)
        return Error(ErrorCode::Unsupported,
                     "unicast channel already has two endpoints");
    // The first endpoint is the creator's: bind the latency series
    // here (not in the constructor) so it carries the creator's host.
    if (endpoints_.empty() && !config_.name.empty())
        deliveryLatency_ = &site.deliveryLatency(config_.name);
    endpoints_.emplace_back().site = &site;
    return endpoints_.size() - 1;
}

Status
Channel::connectCreator(ExecutionSite &site)
{
    if (!endpoints_.empty())
        return Status(ErrorCode::AlreadyExists,
                      "creator endpoint already exists");
    auto index = addEndpoint(site);
    if (!index)
        return index.error();
    return Status::success();
}

std::size_t
Channel::detachOffcode(const Offcode &offcode)
{
    std::size_t detached = 0;
    for (Endpoint &ep : endpoints_) {
        if (ep.offcode != &offcode)
            continue;
        ep.handler = nullptr;
        ++detached;
    }
    return detached;
}

std::size_t
Channel::rebindOffcode(const Offcode &from, Offcode &to)
{
    std::size_t rebound = 0;
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        if (endpoints_[i].offcode != &from)
            continue;
        endpoints_[i].offcode = &to;
        to.onChannelConnected(ChannelHandle{this, i});
        // Reinstalling the default dispatch drains the outage backlog
        // into the successor, oldest first — the in-flight replay leg
        // of restart-with-state-handoff.
        installHandler(i, [this, i](const Payload &message,
                                    std::size_t sender) {
            dispatchToOffcode(i, message, sender);
        });
        ++rebound;
    }
    return rebound;
}

Status
Channel::connectOffcode(Offcode &offcode)
{
    if (!offcode.context().site)
        return Status(ErrorCode::OffcodeNotInitialized,
                      offcode.bindname() + " has no site yet");
    auto index = addEndpoint(*offcode.context().site);
    if (!index)
        return index.error();

    const std::size_t ep = index.value();
    endpoints_[ep].offcode = &offcode;
    endpoints_[ep].handler = [this, ep](const Payload &message,
                                        std::size_t from) {
        dispatchToOffcode(ep, message, from);
    };

    // Paper: attaching implicitly notifies the Offcode about the
    // newly available channel.
    offcode.onChannelConnected(ChannelHandle{this, ep});
    return Status::success();
}

void
Channel::deliverTo(std::size_t endpoint, const Payload &message,
                   std::size_t from, sim::SimTime sentAt,
                   sim::SimTime deliveredAt)
{
    if (endpoint >= endpoints_.size())
        return;
    ++stats_.messagesDelivered;
    {
        static obs::Counter &delivered =
            obs::counter("channel.messages_delivered");
        delivered.increment();
    }
    Endpoint &ep = endpoints_[endpoint];
    if (ep.handler) {
        recordDelivery(ep, sentAt, deliveredAt);
        ep.handler(message, from);
        return;
    }
    // No handler yet: latency resolves when a late-installed handler
    // drains the queue.
    ep.queue.push_back(Queued{message, obs::activeContext(), sentAt});
}

void
Channel::dispatchToOffcode(std::size_t endpoint, const Payload &message,
                           std::size_t from)
{
    Endpoint &ep = endpoints_[endpoint];
    Offcode *offcode = ep.offcode;
    if (!offcode)
        return;

    auto kind = peekKind(message);
    if (!kind) {
        LOG_WARN << "channel: undecodable message to "
                 << offcode->bindname();
        return;
    }

    const sim::SimTime started =
        ep.site ? ep.site->machine().executor().now() : 0;

    if (kind.value() != MessageKind::Return) {
        // Firmware OS quotas. Memory: a message that cannot fit the
        // Offcode's budget is rejected outright (and counted) — the
        // paper's "device memory is precious" made enforceable.
        const OffcodeQuota &quota = offcode->quota();
        if (quota.memoryBytes > 0 && message.size() > quota.memoryBytes) {
            obs::counter("offcode.quota_rejections",
                         {{"offcode", offcode->bindname()},
                          {"resource", "memory"}})
                .increment();
            LOG_DEBUG << offcode->bindname()
                      << ": message rejected by memory quota ("
                      << message.size() << " > " << quota.memoryBytes
                      << " bytes)";
            return;
        }
        // CPU: past the budget slice the dispatch is preempted —
        // re-offered at the next slice boundary, FIFO order preserved
        // (equal-timestamp events dispatch in insertion order).
        sim::SimTime deferUntil = 0;
        if (ep.site && !offcode->admitDispatch(started, &deferUntil)) {
            obs::counter("offcode.preemptions",
                         {{"offcode", offcode->bindname()}})
                .increment();
            ep.site->machine().executor().scheduleAt(
                deferUntil,
                [this, endpoint, msg = message, from]() {
                    dispatchToOffcode(endpoint, msg, from);
                });
            return;
        }
    }
    bool ok = true;

    // Publish this dispatch to the sampling profiler (a no-op unless
    // profiling is on); the same `finished` timestamp that feeds
    // noteDispatch closes the scope, so profiling adds no clock reads.
    obs::ActivityScope activity(ep.site ? ep.site->profilerSlot()
                                        : nullptr,
                                offcode->activityLabel(kind.value()));

    switch (kind.value()) {
      case MessageKind::Call: {
        auto call = Call::deserialize(message);
        if (!call) {
            LOG_WARN << "channel: bad Call to " << offcode->bindname();
            return;
        }
        obs::Span span;
        if (HYDRA_TRACE_ACTIVE() && ep.site)
            span.open(ep.site->machine().name(), ep.site->name(),
                      spanName(call.value()), "call", started);
        // Dispatch costs a little compute at the target site.
        if (ep.site)
            ep.site->run(400);
        Result<Bytes> result =
            offcode->supportsInterface(call.value().interfaceGuid)
                ? offcode->invoke(call.value().method,
                                  call.value().arguments)
                : Result<Bytes>(Error(
                      ErrorCode::InterfaceMismatch,
                      offcode->bindname() +
                          " does not implement interface " +
                          call.value().interfaceGuid.toString()));
        ok = static_cast<bool>(result);
        if (!call.value().expectsReturn) {
            if (ep.site)
                span.end(ep.site->run(0));
            break;
        }
        CallReturn ret;
        ret.callId = call.value().callId;
        if (result) {
            ret.ok = true;
            ret.value = std::move(result).value();
        } else {
            ret.ok = false;
            ret.error = result.error().describe();
        }
        // The Return travels inside the dispatch span, so the reply
        // is causally linked to this Call's span.
        Status written = writeFrom(endpoint, ret.serialize());
        if (!written) {
            LOG_DEBUG << "channel: return write failed: "
                      << written.error().describe();
        }
        if (ep.site)
            span.end(ep.site->run(0));
        break;
      }
      case MessageKind::Data: {
        // The body is a zero-copy slice of the delivered buffer.
        auto payload = decodeData(message);
        if (payload)
            offcode->onData(payload.value(),
                            ChannelHandle{this, endpoint});
        else
            ok = false;
        break;
      }
      case MessageKind::Management: {
        auto payload = decodeManagement(message);
        offcode->onManagement(payload ? payload.value() : Payload{},
                              ChannelHandle{this, endpoint});
        break;
      }
      case MessageKind::Return:
        // An Offcode does not consume Returns: they stay queued until
        // a handler is installed at the endpoint.
        ep.queue.push_back(Queued{message, obs::activeContext(), started});
        break;
    }
    if (kind.value() != MessageKind::Return) {
        const sim::SimTime finished =
            ep.site ? ep.site->run(0) : started;
        activity.finish(finished);
        offcode->noteDispatch(kind.value(), ok, started, finished);
    }
    (void)from;
}

void
Channel::close()
{
    closed_ = true;
}

} // namespace hydra::core
