/**
 * @file
 * TimerQueue: the virtual-time event queue both engines dispatch from.
 *
 * A min-heap on (when, id). Ids rise monotonically, so events at equal
 * timestamps fire in scheduling order, which keeps sim runs
 * deterministic for a fixed seed. Cancellation leaves a tombstone the
 * pop path consumes; tombstones for events that already fired are
 * pruned once they outgrow the queue, and ids never handed out are
 * ignored. Periodic series re-arm through a registry keyed by series
 * id, so a callback may cancel its own series.
 *
 * Only allocateId() is thread-safe; everything else belongs to the
 * engine's driving thread. Workers of the threaded engine take ids
 * here and inject their timers through that engine's own inbox.
 */

#ifndef HYDRA_EXEC_TIMER_QUEUE_HH
#define HYDRA_EXEC_TIMER_QUEUE_HH

#include <atomic>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/executor.hh"

namespace hydra::exec {

/** (when, id)-ordered timers with cancellation and periodic re-arm. */
class TimerQueue
{
  public:
    using Callback = Executor::Callback;

    /** One scheduled event. */
    struct Timer
    {
        Time when = 0;
        TaskId id = 0;
        Callback fn;
    };

    TimerQueue() = default;
    TimerQueue(const TimerQueue &) = delete;
    TimerQueue &operator=(const TimerQueue &) = delete;

    /** Hand out the next id (any thread). */
    TaskId
    allocateId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Queue @p timer, whose id came from allocateId(). */
    void push(Timer timer);

    /** Queue @p fn at @p when under a fresh id; returns the id. */
    TaskId
    push(Time when, Callback fn)
    {
        const TaskId id = allocateId();
        push(Timer{when, id, std::move(fn)});
        return id;
    }

    /**
     * Start a series that runs @p fn every @p period, first at
     * @p now + @p period, until it returns false or is cancelled.
     */
    TaskId pushPeriodic(Time now, Time period, std::function<bool()> fn);

    /** Cancel a timer or series; no-op if fired, cancelled or unissued. */
    void cancel(TaskId id);

    /**
     * Move the earliest live timer into @p out if it is due by
     * @p until, consuming tombstones on the way; false otherwise.
     */
    bool popDue(Time until, Timer &out);

    /** Queued timers, cancelled-but-unpopped ones included. */
    std::size_t size() const { return heap_.size(); }

    /** Tombstones not yet matched to a popped timer (bounded; tests). */
    std::size_t cancelledBacklog() const { return cancelled_.size(); }

  private:
    struct Periodic
    {
        Time period;
        /** When the series' armed event fires. */
        Time due;
        std::function<bool()> fn;
    };

    void arm(TaskId series, Time when);
    void firePeriodic(TaskId series);
    Timer popTop();
    void pruneCancelled();

    /**
     * Min-heap on (when, id) kept by std::push_heap/std::pop_heap so
     * dispatch can move a timer (and its captured state) out of the
     * container instead of copying it.
     */
    std::vector<Timer> heap_;
    std::unordered_set<TaskId> cancelled_;
    std::unordered_map<TaskId, Periodic> periodics_;
    std::atomic<TaskId> nextId_{1};
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_TIMER_QUEUE_HH
