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
 * queue, and ids never handed out are ignored. Periodic series live in
 * a slab indexed by slot, like the one-shot callbacks: each firing
 * finds its series by slot and checks the series id, so a callback may
 * cancel its own series and a firing never hashes.
 *
 * Everything here belongs to the thread that drives the queue, ids
 * included: allocateId() is a plain increment. Workers of the threaded
 * engine take ids from that engine's own atomic source, in the range
 * at and above kForeignIds, and inject their timers through its inbox.
 */

#ifndef HYDRA_EXEC_TIMER_QUEUE_HH
#define HYDRA_EXEC_TIMER_QUEUE_HH

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

    /**
     * First id of the range the queue never hands out itself: ids at
     * or above it come from another source (the threaded engine's
     * workers), which vouches that they were issued.
     */
    static constexpr TaskId kForeignIds = TaskId{1} << 63;

    /** Hand out the next id (the driving thread only). */
    TaskId allocateId() { return nextId_++; }

    /** Queue @p fn at @p when under @p id: one from allocateId(), or
     * a foreign id (at or above kForeignIds). */
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
    /** Index of a periodic series in periodics_. */
    using SeriesSlot = std::uint32_t;

    struct Periodic
    {
        /** Series id; 0 while the slot is free. */
        TaskId series = 0;
        Time period = 0;
        /** When the series' armed event fires. */
        Time due = 0;
        std::function<bool()> fn;
    };

    void arm(SeriesSlot slot, TaskId series, Time when);
    void firePeriodic(SeriesSlot slot, TaskId series);
    /** End the series in @p slot and free the slot for reuse. */
    void endSeries(SeriesSlot slot);
    Key popTop();
    void pruneCancelled();

    /** Min-heap on (when, id), kept by std::push_heap/std::pop_heap. */
    std::vector<Key> heap_;
    CallbackSlab callbacks_;
    std::unordered_set<TaskId> cancelled_;
    /** Periodic series by slot; free slots are listed in freeSeries_. */
    std::vector<Periodic> periodics_;
    std::vector<SeriesSlot> freeSeries_;
    /** Live series id -> slot, for cancel(); firings never use it. */
    std::unordered_map<TaskId, SeriesSlot> seriesSlots_;
    TaskId nextId_ = 1;
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_TIMER_QUEUE_HH
