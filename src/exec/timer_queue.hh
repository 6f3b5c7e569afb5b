/**
 * @file
 * TimerQueue: the virtual-time event queue both engines dispatch from.
 *
 * A min-heap of trivially copyable (when, id, slot) keys. Ids rise
 * monotonically, so events at equal timestamps fire in scheduling
 * order, which keeps sim runs deterministic for a fixed seed. The
 * callbacks themselves wait in an address-stable CallbackSlab: push()
 * moves each one into its cell once, heap maintenance only shuffles
 * 24-byte keys, and the engine runs the callback in place with fire().
 *
 * Cancellation leaves a tombstone the pop path consumes; tombstones
 * for events that already fired are pruned once they outgrow the
 * queue, and ids never handed out are ignored. Periodic series re-arm
 * through a registry keyed by series id, so a callback may cancel its
 * own series.
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

#include "exec/callback.hh"
#include "exec/executor.hh"

namespace hydra::exec {

/** (when, id)-ordered timers with cancellation and periodic re-arm. */
class TimerQueue
{
  public:
    using Slot = CallbackSlab::Slot;

    /** Heap entry of one scheduled event; its callback sits in slot. */
    struct Key
    {
        Time when = 0;
        TaskId id = 0;
        Slot slot = 0;
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

    /** Queue @p fn at @p when under @p id, which came from allocateId(). */
    void push(Time when, TaskId id, Callback &&fn);

    /** Queue @p fn at @p when under a fresh id; returns the id. */
    TaskId
    push(Time when, Callback &&fn)
    {
        const TaskId id = allocateId();
        push(when, id, std::move(fn));
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
     * Pop the earliest live timer's key into @p out if it is due by
     * @p until, consuming tombstones on the way; false otherwise. The
     * popped timer's callback stays in its slot until fire().
     */
    bool popDue(Time until, Key &out);

    /**
     * Run the callback of a popped key in place, then free its slot.
     * The slot stays held while the callback runs, so timers it
     * pushes never reuse (and overwrite) the running closure.
     */
    void
    fire(Slot slot)
    {
        callbacks_.at(slot)();
        callbacks_.release(slot);
    }

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
    Key popTop();
    void pruneCancelled();

    /** Min-heap on (when, id), kept by std::push_heap/std::pop_heap. */
    std::vector<Key> heap_;
    CallbackSlab callbacks_;
    std::unordered_set<TaskId> cancelled_;
    std::unordered_map<TaskId, Periodic> periodics_;
    std::atomic<TaskId> nextId_{1};
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_TIMER_QUEUE_HH
