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
    // The series lives in a periodics_ slot; each firing finds it by
    // slot and checks the id, so cancellation just frees the slot and
    // nothing holds a self-referential closure.
    const TaskId series = allocateId();
    SeriesSlot slot = 0;
    if (freeSeries_.empty()) {
        slot = static_cast<SeriesSlot>(periodics_.size());
        periodics_.emplace_back();
    } else {
        slot = freeSeries_.back();
        freeSeries_.pop_back();
    }
    periodics_[slot] = Periodic{series, period, now + period, std::move(fn)};
    seriesSlots_.emplace(series, slot);
    arm(slot, series, now + period);
    return series;
}

void
TimerQueue::arm(SeriesSlot slot, TaskId series, Time when)
{
    push(when, [this, slot, series]() { firePeriodic(slot, series); });
}

void
TimerQueue::endSeries(SeriesSlot slot)
{
    Periodic &periodic = periodics_[slot];
    seriesSlots_.erase(periodic.series);
    periodic = Periodic{};
    freeSeries_.push_back(slot);
}

void
TimerQueue::firePeriodic(SeriesSlot slot, TaskId series)
{
    if (periodics_[slot].series != series)
        return; // cancelled (the slot may already hold a newer series)
    // Run the callback from a local: cancelling its own series clears
    // the slot it would otherwise be running from, and a series it
    // starts may grow periodics_.
    std::function<bool()> fn = std::move(periodics_[slot].fn);
    const bool again = fn();
    Periodic &periodic = periodics_[slot];
    if (periodic.series != series)
        return; // it cancelled itself
    if (!again) {
        endSeries(slot);
        return;
    }
    periodic.fn = std::move(fn);
    periodic.due += periodic.period;
    arm(slot, series, periodic.due);
}

void
TimerQueue::cancel(TaskId id)
{
    if (auto it = seriesSlots_.find(id); it != seriesSlots_.end()) {
        endSeries(it->second);
        return;
    }
    // Ids never handed out cannot be pending; remembering them would
    // grow cancelled_ forever with nothing to erase them.
    if (id >= nextId_ && id < kForeignIds)
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
