#include "exec/sim_executor.hh"

#include <algorithm>
#include <cassert>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"

namespace hydra::exec {

namespace {

/** Process-wide instruments for the deterministic engine. */
struct SimExecMetrics
{
    obs::Counter &posts =
        obs::counter("exec.posts", {{"executor", "sim"}});
    obs::Gauge &sites = obs::gauge("exec.sites", {{"executor", "sim"}});
};

SimExecMetrics &
simExecMetrics()
{
    static SimExecMetrics metrics;
    return metrics;
}

/**
 * The event kernel's instruments. Registered on the first timer
 * operation rather than with the engine: the registry exports in
 * registration order, so moving them would reorder metrics dumps.
 */
struct KernelMetrics
{
    obs::Counter &dispatched = obs::counter("sim.events_dispatched");
    obs::Counter &scheduled = obs::counter("sim.events_scheduled");
    obs::Counter &cancelled = obs::counter("sim.events_cancelled");
    obs::Gauge &queueDepth = obs::gauge("sim.queue_depth");
};

KernelMetrics &
kernelMetrics()
{
    static KernelMetrics metrics;
    return metrics;
}

} // namespace

SimExecutor::SimExecutor()
{
    simExecMetrics();
}

TaskId
SimExecutor::enqueue(Time when, Callback &&fn)
{
    assert(when >= now_);
    const TaskId id = timers_.push(when, std::move(fn));
    kernelMetrics().scheduled.increment();
    return id;
}

void
SimExecutor::cancel(TaskId id)
{
    kernelMetrics().cancelled.increment();
    timers_.cancel(id);
}

bool
SimExecutor::dispatch(Time until)
{
    TimerQueue::Key key;
    if (!timers_.popDue(until, key))
        return false;
    assert(key.when >= now_);
    now_ = key.when;
    ++dispatched_;
    KernelMetrics &metrics = kernelMetrics();
    metrics.dispatched.increment();
    metrics.queueDepth.set(static_cast<double>(timers_.size()));
    timers_.fire(key.slot);
    return true;
}

bool
SimExecutor::step()
{
    return dispatch(static_cast<Time>(-1));
}

void
SimExecutor::runUntil(Time until)
{
    while (dispatch(until)) {
    }
    if (now_ < until)
        now_ = until;
}

void
SimExecutor::runToCompletion()
{
    while (step()) {
    }
}

SiteId
SimExecutor::addSite(const std::string &name)
{
    siteNames_.push_back(name);
    simExecMetrics().sites.set(static_cast<double>(siteNames_.size()));
    return static_cast<SiteId>(siteNames_.size());
}

void
SimExecutor::post(SiteId site, Callback fn)
{
    // Site affinity is meaningless on a single thread; a zero-delay
    // event preserves global FIFO order, which keeps runs
    // deterministic (the property the sim engine exists to provide).
    simExecMetrics().posts.increment();

    chaos::ChaosEngine &chaosEngine = chaos::ChaosEngine::instance();
    if (chaosEngine.enabled()) {
        // Chaos under sim is still deterministic: a stalled site
        // parks subsequent posts at a fixed future instant, a slow
        // draw delays one task — both via scheduleAt, which preserves
        // FIFO among equal timestamps, so a seeded run replays
        // byte-for-byte.
        const Time now = now_;
        sim::SimTime amount = 0;
        if (chaosEngine.stallSite(now, amount)) {
            if (stallUntil_.size() <= site)
                stallUntil_.resize(site + 1, 0);
            stallUntil_[site] = std::max(stallUntil_[site], now + amount);
        }
        Time when = now;
        if (site < stallUntil_.size())
            when = std::max(when, stallUntil_[site]);
        if (chaosEngine.slowPost(now, amount))
            when += amount;
        if (when > now) {
            enqueue(when, std::move(fn));
            return;
        }
    }
    enqueue(now_, std::move(fn));
}

void
SimExecutor::drain()
{
    // Run everything due at the current instant — post() chains
    // schedule zero-delay events, so a pipeline drains fully — but
    // leave future timers for runUntil().
    runUntil(now_);
}

const char *
executorKindName(ExecutorKind kind)
{
    switch (kind) {
      case ExecutorKind::Sim: return "sim";
      case ExecutorKind::Threaded: return "threaded";
    }
    return "?";
}

bool
parseExecutorKind(const std::string &name, ExecutorKind &out)
{
    if (name == "sim") {
        out = ExecutorKind::Sim;
        return true;
    }
    if (name == "threaded") {
        out = ExecutorKind::Threaded;
        return true;
    }
    return false;
}

} // namespace hydra::exec
