#include "core/proxy.hh"

#include "common/logging.hh"
#include "obs/trace.hh"

namespace hydra::core {

Proxy::Proxy(Channel &channel, Guid target_offcode, Guid interface_guid,
             std::size_t endpoint)
    : channel_(channel), endpoint_(endpoint), target_(target_offcode),
      interface_(interface_guid)
{
    channel_.installHandler(endpoint_,
                            [this](const Payload &message, std::size_t) {
                                onMessage(message);
                            });
}

Call
Proxy::makeCall(const std::string &method, const Bytes &arguments,
                bool expects_return)
{
    Call call;
    call.targetOffcode = target_;
    call.interfaceGuid = interface_;
    call.method = method;
    call.arguments = arguments;
    call.callId = nextCallId_++;
    call.expectsReturn = expects_return;
    return call;
}

Status
Proxy::invoke(const std::string &method, const Bytes &arguments,
              ReturnCallback on_return)
{
    Call call = makeCall(method, arguments, true);
    const std::uint64_t id = call.callId;
    ExecutionSite *site = channel_.siteOf(endpoint_);
    obs::Span span;
    if (HYDRA_TRACE_ACTIVE() && site)
        span.open(site->machine().name(), site->name(), spanName(call),
                  "call", site->machine().executor().now());
    Status sent = channel_.writeFrom(endpoint_, call.serialize());
    if (site)
        span.end(site->run(0));
    if (!sent)
        return sent;
    pending_[id] = Pending{std::move(on_return), span.context()};
    return Status::success();
}

void
Proxy::onMessage(const Payload &message)
{
    auto kind = peekKind(message);
    if (!kind || kind.value() != MessageKind::Return) {
        LOG_DEBUG << "proxy: ignoring non-Return message";
        return;
    }
    auto ret = CallReturn::deserialize(message);
    if (!ret) {
        LOG_WARN << "proxy: bad Return message";
        return;
    }
    auto it = pending_.find(ret.value().callId);
    if (it == pending_.end())
        return;
    Pending entry = std::move(it->second);
    pending_.erase(it);
    // Run the completion under the originating Call's span so work
    // triggered by the Return stays on the same trace.
    obs::ContextScope scope(entry.ctx);
    if (ret.value().ok)
        entry.callback(std::move(ret).value().value);
    else
        entry.callback(
            Error(ErrorCode::OffcodeFaulted, ret.value().error));
}

} // namespace hydra::core
