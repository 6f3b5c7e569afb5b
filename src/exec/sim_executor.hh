/**
 * @file
 * SimExecutor: the deterministic discrete-event engine. One thread
 * drives one clock and one TimerQueue; post(site, fn) is a zero-delay
 * event, so cross-site handoffs fire in global scheduling order and a
 * fixed seed replays byte for byte.
 */

#ifndef HYDRA_EXEC_SIM_EXECUTOR_HH
#define HYDRA_EXEC_SIM_EXECUTOR_HH

#include <vector>

#include "exec/executor.hh"
#include "exec/timer_queue.hh"

namespace hydra::exec {

/** Deterministic single-threaded engine (the default). */
class SimExecutor final : public Executor
{
  public:
    SimExecutor();

    const char *backendName() const override { return "sim"; }
    bool concurrentPosts() const override { return false; }

    Time now() const override { return now_; }

    TaskId
    schedule(Time delay, Callback fn) override
    {
        return enqueue(now_ + delay, std::move(fn));
    }

    TaskId
    scheduleAt(Time when, Callback fn) override
    {
        return enqueue(when, std::move(fn));
    }

    TaskId
    schedulePeriodic(Time period, std::function<bool()> fn) override
    {
        return timers_.pushPeriodic(now_, period, std::move(fn));
    }

    void cancel(TaskId id) override;

    SiteId addSite(const std::string &name) override;
    std::size_t siteCount() const override { return siteNames_.size(); }

    void post(SiteId site, Callback fn) override;

    void runUntil(Time until) override;
    void runToCompletion() override;
    bool step() override;
    void drain() override;

    std::uint64_t eventsDispatched() const override { return dispatched_; }

    std::size_t pendingEvents() const override { return timers_.size(); }

  private:
    /** Queue @p fn at @p when (>= now); the one path into the heap. */
    TaskId enqueue(Time when, Callback &&fn);

    /** Fire the earliest timer, in place, if it is due by @p until. */
    bool dispatch(Time until);

    TimerQueue timers_;
    Time now_ = 0;
    std::uint64_t dispatched_ = 0;
    std::vector<std::string> siteNames_;
    /** Chaos: virtual time each site is wedged until (0 = healthy). */
    std::vector<Time> stallUntil_;
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_SIM_EXECUTOR_HH
