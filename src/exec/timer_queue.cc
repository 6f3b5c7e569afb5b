#include "exec/timer_queue.hh"

#include <algorithm>
#include <cassert>

namespace hydra::exec {

namespace {

/** Heap order: a sinks below b when it fires later (FIFO on ties). */
struct Later
{
    bool
    operator()(const TimerQueue::Timer &a, const TimerQueue::Timer &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.id > b.id;
    }
};

} // namespace

void
TimerQueue::push(Timer timer)
{
    heap_.push_back(std::move(timer));
    std::push_heap(heap_.begin(), heap_.end(), Later());
}

TimerQueue::Timer
TimerQueue::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    Timer timer = std::move(heap_.back());
    heap_.pop_back();
    return timer;
}

TaskId
TimerQueue::pushPeriodic(Time now, Time period, std::function<bool()> fn)
{
    assert(period > 0);
    // The series lives in periodics_; each firing looks itself up by
    // id, so cancellation is just an erase and nothing holds a
    // self-referential closure.
    const TaskId series = allocateId();
    periodics_[series] = Periodic{period, now + period, std::move(fn)};
    arm(series, now + period);
    return series;
}

void
TimerQueue::arm(TaskId series, Time when)
{
    push(when, [this, series]() { firePeriodic(series); });
}

void
TimerQueue::firePeriodic(TaskId series)
{
    auto it = periodics_.find(series);
    if (it == periodics_.end())
        return; // cancelled
    // Run the callback from a local: cancelling its own series erases
    // the entry it would otherwise be running from.
    std::function<bool()> fn = std::move(it->second.fn);
    const bool again = fn();
    it = periodics_.find(series);
    if (it == periodics_.end())
        return; // it cancelled itself
    if (!again) {
        periodics_.erase(it);
        return;
    }
    it->second.fn = std::move(fn);
    it->second.due += it->second.period;
    arm(series, it->second.due);
}

void
TimerQueue::cancel(TaskId id)
{
    if (periodics_.erase(id))
        return;
    // Ids never handed out cannot be pending; remembering them would
    // grow cancelled_ forever with nothing to erase them.
    if (id >= nextId_.load(std::memory_order_relaxed))
        return;
    cancelled_.insert(id);
    pruneCancelled();
}

void
TimerQueue::pruneCancelled()
{
    // Cancelling an already-fired id leaves a tombstone no pop will
    // ever claim. Once the set clearly outgrows the pending queue,
    // intersect it with the ids actually still scheduled.
    constexpr std::size_t kSlack = 64;
    if (cancelled_.size() <= heap_.size() + kSlack)
        return;
    std::unordered_set<TaskId> live;
    live.reserve(heap_.size());
    for (const Timer &timer : heap_)
        live.insert(timer.id);
    std::erase_if(cancelled_,
                  [&live](TaskId id) { return !live.count(id); });
}

bool
TimerQueue::popDue(Time until, Timer &out)
{
    while (!heap_.empty()) {
        const Timer &top = heap_.front();
        if (!cancelled_.empty() && cancelled_.erase(top.id)) {
            popTop();
            continue;
        }
        if (top.when > until)
            return false;
        out = popTop();
        return true;
    }
    return false;
}

} // namespace hydra::exec
