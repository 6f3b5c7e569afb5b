/**
 * @file
 * Transparent Offcode invocation (paper Section 3.1): a proxy with
 * the target's interface whose methods produce Call objects, send
 * them over a connected channel, and correlate the Return messages
 * back to completion callbacks. The manual scheme — building the
 * Call yourself — is available through makeCall().
 */

#ifndef HYDRA_CORE_PROXY_HH
#define HYDRA_CORE_PROXY_HH

#include <functional>
#include <map>

#include "core/call.hh"
#include "core/channel.hh"

namespace hydra::core {

/** Caller-side proxy bound to a channel's creator endpoint. */
class Proxy
{
  public:
    using ReturnCallback = std::function<void(Result<Bytes>)>;

    /**
     * @param channel Connected channel; the proxy owns endpoint
     * @p endpoint's handler (installs its own Return dispatcher).
     */
    Proxy(Channel &channel, Guid target_offcode, Guid interface_guid,
          std::size_t endpoint = 0);

    /** Transparent scheme: marshal, send, await the Return. */
    Status invoke(const std::string &method, const Bytes &arguments,
                  ReturnCallback on_return);

    /** Manual scheme: build the Call without sending it. */
    Call makeCall(const std::string &method, const Bytes &arguments,
                  bool expects_return = true);

    std::size_t pendingCalls() const { return pending_.size(); }

  private:
    /** A pending Return plus the span the Call was issued under. */
    struct Pending
    {
        ReturnCallback callback;
        obs::SpanContext ctx;
    };

    void onMessage(const Payload &message);

    Channel &channel_;
    std::size_t endpoint_;
    Guid target_;
    Guid interface_;
    std::uint64_t nextCallId_ = 1;
    std::map<std::uint64_t, Pending> pending_;
};

} // namespace hydra::core

#endif // HYDRA_CORE_PROXY_HH
