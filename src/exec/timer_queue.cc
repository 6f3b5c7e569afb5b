#include "exec/timer_queue.hh"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace hydra::exec {

static_assert(std::is_trivially_copyable_v<TimerQueue::Key>,
              "heap maintenance copies keys, never callbacks");

namespace {

/** Heap order: a sinks below b when it fires later (FIFO on ties). */
struct Later
{
    bool
    operator()(const TimerQueue::Key &a, const TimerQueue::Key &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.id > b.id;
    }
};

} // namespace

void
TimerQueue::push(Time when, TaskId id, Callback &&fn)
{
    heap_.push_back(Key{when, id, callbacks_.hold(std::move(fn))});
    std::push_heap(heap_.begin(), heap_.end(), Later());
}

TimerQueue::Key
TimerQueue::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    const Key key = heap_.back();
    heap_.pop_back();
    return key;
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
    for (const Key &key : heap_)
        live.insert(key.id);
    std::erase_if(cancelled_,
                  [&live](TaskId id) { return !live.count(id); });
}

bool
TimerQueue::popDue(Time until, Key &out)
{
    while (!heap_.empty()) {
        const Key &top = heap_.front();
        if (!cancelled_.empty() && cancelled_.erase(top.id)) {
            callbacks_.release(popTop().slot);
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
