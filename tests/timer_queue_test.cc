/**
 * @file
 * Tests for the virtual-time event queue: exec::Callback, TimerQueue
 * on its own and against a reference model, then the timer semantics
 * every engine must share, run through the Executor interface on both
 * SimExecutor and ThreadedExecutor.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "exec/sim_executor.hh"
#include "exec/threaded_executor.hh"
#include "exec/timer_queue.hh"

namespace hydra::exec {
namespace {

constexpr Time kForever = static_cast<Time>(-1);

/** Pop and run every live timer; returns how many ran. */
int
runAll(TimerQueue &queue)
{
    int ran = 0;
    TimerQueue::Key key;
    while (queue.popDue(kForever, key)) {
        queue.fire(key.slot);
        ++ran;
    }
    return ran;
}

/**
 * Capture that tallies its own lifetime: every constructor (copies and
 * moves included) and every destructor. A callback machinery that
 * destroys each capture exactly once leaves made == destroyed.
 */
struct Lifetimes
{
    int made = 0;
    int destroyed = 0;

    int live() const { return made - destroyed; }
};

struct Tracker
{
    Lifetimes *counts;
    /** Cleared by the destructor: a running closure checks it. */
    bool alive = true;

    explicit Tracker(Lifetimes &lifetimes) : counts(&lifetimes)
    {
        ++counts->made;
    }
    Tracker(const Tracker &other) : counts(other.counts) { ++counts->made; }
    Tracker(Tracker &&other) noexcept : counts(other.counts)
    {
        ++counts->made;
    }
    Tracker &operator=(const Tracker &) = delete;
    ~Tracker()
    {
        alive = false;
        ++counts->destroyed;
    }
};

// ------------------------------------------------------------ Callback

TEST(CallbackTest, SmallAndPacketSizedCapturesStayInline)
{
    int hits = 0;
    Callback small([&hits]() { ++hits; });
    EXPECT_TRUE(small.isInline());
    // The largest per-message closure: this + SpanContext + Packet.
    std::array<std::uint8_t, 104> packet{};
    packet[0] = 7;
    Callback large([&hits, packet]() { hits += packet[0]; });
    EXPECT_TRUE(large.isInline());
    small();
    large();
    EXPECT_EQ(hits, 8);
}

TEST(CallbackTest, OversizeCaptureFallsBackToTheHeap)
{
    std::array<std::uint8_t, Callback::kInlineBytes + 8> big{};
    big.back() = 5;
    int sum = 0;
    Callback fn([&sum, big]() { sum += big.back(); });
    EXPECT_FALSE(fn.isInline());
    Callback moved(std::move(fn));
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_FALSE(moved.isInline());
    moved();
    EXPECT_EQ(sum, 5);
}

TEST(CallbackTest, MoveOnlyCapturesAreAccepted)
{
    auto owned = std::make_unique<int>(41);
    int seen = 0;
    Callback fn([&seen, owned = std::move(owned)]() { seen = *owned + 1; });
    Callback moved;
    moved = std::move(fn);
    moved();
    EXPECT_EQ(seen, 42);
}

TEST(CallbackTest, NullTargetsMakeEmptyCallbacks)
{
    EXPECT_FALSE(static_cast<bool>(Callback()));
    EXPECT_FALSE(static_cast<bool>(Callback(nullptr)));
    EXPECT_FALSE(static_cast<bool>(Callback(std::function<void()>())));
    void (*none)() = nullptr;
    EXPECT_FALSE(static_cast<bool>(Callback(none)));
    Callback fn([]() {});
    fn = nullptr;
    EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(CallbackTest, EachCaptureIsDestroyedExactlyOnce)
{
    Lifetimes inlined;
    Lifetimes heaped;
    {
        std::array<std::uint8_t, Callback::kInlineBytes> pad{};
        Callback a([t = Tracker(inlined)]() { (void)t; });
        Callback b([t = Tracker(heaped), pad]() { (void)t, (void)pad; });
        ASSERT_TRUE(a.isInline());
        ASSERT_FALSE(b.isInline());
        // Moves, swaps through a temporary, and overwrites.
        Callback c(std::move(a));
        Callback d(std::move(b));
        a = std::move(c);
        b = std::move(d);
        c = std::move(a);
        c();
        EXPECT_EQ(inlined.live(), 1);
        EXPECT_EQ(heaped.live(), 1);
        b = Callback([]() {}); // replacing destroys the old target
        EXPECT_EQ(heaped.live(), 0);
    }
    EXPECT_EQ(inlined.live(), 0);
    EXPECT_EQ(heaped.live(), 0);
    EXPECT_GT(inlined.made, 1); // the moves were counted too
}

// ---------------------------------------------------------- TimerQueue

TEST(TimerQueueTest, CancelBacklogStaysBounded)
{
    // Cancelling ids of timers that already fired must not leave a
    // tombstone forever: the set is pruned against the pending queue
    // once it outgrows the slack.
    TimerQueue queue;
    for (int i = 0; i < 1000; ++i) {
        const TaskId id = queue.push(1, []() {});
        ASSERT_EQ(runAll(queue), 1);
        queue.cancel(id); // no-op: the timer is long gone
    }
    EXPECT_LE(queue.cancelledBacklog(), 65u); // not 1000
}

TEST(TimerQueueTest, CancelOfUnissuedIdIsIgnored)
{
    TimerQueue queue;
    // Ids never handed out cannot be pending; remembering them would
    // also wrongly cancel the future timer that gets that id.
    queue.cancel(12345);
    EXPECT_EQ(queue.cancelledBacklog(), 0u);

    bool fired = false;
    queue.push(1, [&]() { fired = true; });
    runAll(queue);
    EXPECT_TRUE(fired);
}

TEST(TimerQueueTest, CancelledPendingEventsLeaveNoResidue)
{
    TimerQueue queue;
    for (int i = 0; i < 100; ++i)
        queue.cancel(queue.push(10, []() {}));
    EXPECT_EQ(runAll(queue), 0);
    // Every tombstone was consumed when its timer was popped.
    EXPECT_EQ(queue.cancelledBacklog(), 0u);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(TimerQueueTest, PeriodicMayCancelItself)
{
    // The callback cancels its own series and then touches its
    // captures, which must still be alive.
    TimerQueue queue;
    TaskId series = 0;
    int ticks = 0;
    series = queue.pushPeriodic(0, 10, [&queue, &series, &ticks]() {
        queue.cancel(series);
        return ++ticks < 100;
    });
    runAll(queue);
    EXPECT_EQ(ticks, 1);
    EXPECT_EQ(queue.size(), 0u);
}

// ------------------------------------- TimerQueue vs a reference model

/**
 * Drives a TimerQueue and a reference model with the same seeded
 * operation sequence and checks, after every operation, that both
 * fired the same callbacks in the same order and hold the same queue.
 *
 * The reference is an ordered set of (when, id) with TimerQueue's id
 * allocation sequence replayed: one id per timer, two per new series
 * (the series and its first arming), one per re-arm. A cancelled
 * pending timer stays in the set as a zombie until it reaches the
 * top, exactly as a tombstoned key does. Plain callbacks carry a
 * Tracker, so the live capture count must always equal the plain
 * timers still queued, and reach zero when the queue is destroyed.
 */
class KernelDifferential
{
  public:
    explicit KernelDifferential(std::uint64_t seed) : rng_(seed) {}

    void
    run(int operations)
    {
        for (int op = 0; op < operations && !failed(); ++op) {
            const int dice = pick(0, 99);
            if (dice < 35)
                pushPlain(pick(0, 40), 0);
            else if (dice < 45)
                pushPlain(pick(0, 40), pick(1, 30));
            else if (dice < 50)
                pushSeries();
            else if (dice < 75)
                cancel();
            else
                popDue(now_ + pick(0, 30));
            check();
        }
        popDue(kForever);
        check();
        EXPECT_EQ(queue_->size(), 0u);
        queue_.reset(); // destroyed with whatever the run left behind
        EXPECT_EQ(lifetimes_.live(), 0);
        EXPECT_GT(refFired_.size(), 100u);
    }

    /** Run again with a queue destroyed while events are pending. */
    void
    runAndAbandon(int operations)
    {
        for (int op = 0; op < operations && !failed(); ++op) {
            pushPlain(pick(0, 40), pick(0, 1) ? pick(1, 30) : 0);
            if (pick(0, 3) == 0)
                cancel();
            if (pick(0, 3) == 0)
                popDue(now_ + pick(0, 10));
            check();
        }
        ASSERT_GT(queue_->size(), 0u);
        queue_.reset();
        EXPECT_EQ(lifetimes_.live(), 0);
    }

  private:
    struct RefEntry
    {
        int label = 0;
        Time spawnDelay = 0;
        /** Non-zero: this entry arms that periodic series. */
        TaskId series = 0;
    };

    struct RefSeries
    {
        int label = 0;
        Time period = 0;
        Time due = 0;
        int fired = 0;
        int limit = 0;
        /** Firing that cancels its own series (0 = never). */
        int cancelAt = 0;
    };

    static bool failed() { return ::testing::Test::HasFailure(); }

    int
    pick(int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(rng_);
    }

    Callback
    plainCallback(int label, Time spawnDelay)
    {
        return [this, label, spawnDelay, t = Tracker(lifetimes_)]() {
            // Schedule first, then read the captures: the running
            // closure must survive timers pushed from inside it.
            if (spawnDelay != 0)
                queue_->push(now_ + spawnDelay, plainCallback(-label, 0));
            EXPECT_TRUE(t.alive);
            realFired_.push_back(label);
        };
    }

    void
    refInsert(Time when, RefEntry entry)
    {
        const TaskId id = nextId_++;
        queue_ref_.insert({when, id});
        entries_[id] = entry;
        issued_.push_back(id);
    }

    void
    pushPlain(Time delay, Time spawnDelay)
    {
        const int label = ++labels_;
        const TaskId id =
            queue_->push(now_ + delay, plainCallback(label, spawnDelay));
        EXPECT_EQ(id, nextId_);
        refInsert(now_ + delay, RefEntry{label, spawnDelay, 0});
    }

    void
    pushSeries()
    {
        RefSeries series;
        series.label = ++labels_;
        series.period = pick(1, 15);
        series.due = now_ + series.period;
        series.limit = pick(1, 6);
        series.cancelAt = pick(0, 1) ? pick(1, series.limit) : 0;
        const int label = series.label;
        const int limit = series.limit;
        const int cancelAt = series.cancelAt;
        const TaskId id = queue_->pushPeriodic(
            now_, series.period,
            [this, label, limit, cancelAt, fired = 0]() mutable {
                ++fired;
                realFired_.push_back(label);
                if (fired == cancelAt) {
                    queue_->cancel(seriesIds_.at(label));
                    return true; // the cancel must win
                }
                return fired < limit;
            });
        seriesIds_[label] = id;
        EXPECT_EQ(id, nextId_);
        const TaskId seriesId = nextId_++;
        issued_.push_back(seriesId);
        series_[seriesId] = series;
        refInsert(series.due, RefEntry{0, 0, seriesId});
    }

    void
    cancel()
    {
        TaskId id = 0;
        if (issued_.empty() || pick(0, 4) == 0)
            id = nextId_ + static_cast<TaskId>(pick(0, 5)); // unissued
        else
            id = issued_[static_cast<std::size_t>(
                pick(0, static_cast<int>(issued_.size()) - 1))];
        queue_->cancel(id);
        // Reference semantics: a live series ends; a pending timer
        // turns into a zombie; anything else is a no-op.
        if (series_.erase(id))
            return;
        for (const auto &[when, queued] : queue_ref_)
            if (queued == id) {
                zombies_.insert(id);
                return;
            }
    }

    void
    popDue(Time until)
    {
        TimerQueue::Key key;
        while (queue_->popDue(until, key)) {
            EXPECT_GE(key.when, now_);
            now_ = key.when;
            queue_->fire(key.slot);
        }
        Time refNow = refNow_;
        while (!queue_ref_.empty()) {
            const auto [when, id] = *queue_ref_.begin();
            if (zombies_.erase(id)) {
                queue_ref_.erase(queue_ref_.begin());
                entries_.erase(id);
                continue;
            }
            if (when > until)
                break;
            queue_ref_.erase(queue_ref_.begin());
            const RefEntry entry = entries_.at(id);
            entries_.erase(id);
            refNow = when;
            if (entry.series == 0) {
                if (entry.spawnDelay != 0)
                    refInsert(refNow + entry.spawnDelay,
                              RefEntry{-entry.label, 0, 0});
                refFired_.push_back(entry.label);
                continue;
            }
            auto it = series_.find(entry.series);
            if (it == series_.end())
                continue; // cancelled series: its arming fires empty
            RefSeries &series = it->second;
            refFired_.push_back(series.label);
            ++series.fired;
            if (series.fired == series.cancelAt ||
                series.fired >= series.limit) {
                series_.erase(it);
                continue;
            }
            series.due += series.period;
            refInsert(series.due, RefEntry{0, 0, entry.series});
        }
        if (until != kForever) {
            now_ = std::max(now_, until);
            refNow = std::max(refNow, until);
        }
        refNow_ = refNow;
    }

    void
    check()
    {
        ASSERT_EQ(realFired_, refFired_);
        ASSERT_EQ(queue_->size(), queue_ref_.size());
        int plainQueued = 0;
        for (const auto &[when, id] : queue_ref_)
            if (entries_.at(id).series == 0)
                ++plainQueued;
        ASSERT_EQ(lifetimes_.live(), plainQueued);
    }

    std::mt19937_64 rng_;
    Lifetimes lifetimes_;
    std::unique_ptr<TimerQueue> queue_ = std::make_unique<TimerQueue>();
    Time now_ = 0;
    int labels_ = 0;
    std::vector<int> realFired_;
    std::map<int, TaskId> seriesIds_;

    // --- the reference model ---
    Time refNow_ = 0;
    TaskId nextId_ = 1;
    std::set<std::pair<Time, TaskId>> queue_ref_;
    std::set<TaskId> zombies_;
    std::map<TaskId, RefEntry> entries_;
    std::map<TaskId, RefSeries> series_;
    std::vector<TaskId> issued_;
    std::vector<int> refFired_;
};

TEST(TimerQueueDifferentialTest, FireOrderMatchesReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 8 && !HasFailure(); ++seed) {
        SCOPED_TRACE(seed);
        KernelDifferential(seed).run(3000);
    }
}

TEST(TimerQueueDifferentialTest, DestroyedQueueReleasesPendingCaptures)
{
    for (std::uint64_t seed = 11; seed <= 14 && !HasFailure(); ++seed) {
        SCOPED_TRACE(seed);
        KernelDifferential(seed).runAndAbandon(500);
    }
}

// ------------------------------------------------ both engines' timers

template <typename Engine>
class ExecutorKernelTest : public ::testing::Test
{
  protected:
    Engine impl;
    Executor &engine = impl;
};

using Engines = ::testing::Types<SimExecutor, ThreadedExecutor>;
TYPED_TEST_SUITE(ExecutorKernelTest, Engines);

TYPED_TEST(ExecutorKernelTest, FiresInTimeOrder)
{
    Executor &engine = this->engine;
    const std::thread::id driver = std::this_thread::get_id();
    std::vector<int> order;
    engine.schedule(30, [&]() {
        EXPECT_EQ(std::this_thread::get_id(), driver);
        order.push_back(3);
    });
    engine.schedule(10, [&]() { order.push_back(1); });
    engine.schedule(20, [&]() { order.push_back(2); });
    engine.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(engine.now(), 30u);
}

TYPED_TEST(ExecutorKernelTest, FifoAmongEqualTimestamps)
{
    Executor &engine = this->engine;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        engine.schedule(100, [&order, i]() { order.push_back(i); });
    engine.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TYPED_TEST(ExecutorKernelTest, NestedSchedulingAdvancesClock)
{
    Executor &engine = this->engine;
    Time innerFired = 0;
    engine.schedule(10, [&]() {
        engine.schedule(5, [&]() { innerFired = engine.now(); });
    });
    engine.runToCompletion();
    EXPECT_EQ(innerFired, 15u);
}

TYPED_TEST(ExecutorKernelTest, CancelPreventsExecution)
{
    Executor &engine = this->engine;
    bool fired = false;
    const TaskId id = engine.schedule(10, [&]() { fired = true; });
    engine.cancel(id);
    engine.runToCompletion();
    EXPECT_FALSE(fired);
    EXPECT_EQ(engine.eventsDispatched(), 0u);
}

TYPED_TEST(ExecutorKernelTest, CancelOneOfMany)
{
    Executor &engine = this->engine;
    int count = 0;
    engine.schedule(10, [&]() { ++count; });
    const TaskId id = engine.schedule(10, [&]() { count += 100; });
    engine.schedule(10, [&]() { ++count; });
    engine.cancel(id);
    engine.runToCompletion();
    EXPECT_EQ(count, 2);
}

TYPED_TEST(ExecutorKernelTest, RunUntilStopsAndAdvancesClock)
{
    Executor &engine = this->engine;
    int fired = 0;
    engine.schedule(10, [&]() { ++fired; });
    engine.schedule(100, [&]() { ++fired; });
    engine.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(engine.now(), 50u);
    EXPECT_EQ(engine.pendingEvents(), 1u);
    engine.runUntil(200);
    EXPECT_EQ(fired, 2);
}

TYPED_TEST(ExecutorKernelTest, PeriodicRunsUntilFalse)
{
    Executor &engine = this->engine;
    int ticks = 0;
    engine.schedulePeriodic(10, [&]() { return ++ticks < 5; });
    engine.runToCompletion();
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(engine.now(), 50u);
}

TYPED_TEST(ExecutorKernelTest, PeriodicCancellable)
{
    Executor &engine = this->engine;
    int ticks = 0;
    const TaskId id = engine.schedulePeriodic(10, [&]() {
        ++ticks;
        return true;
    });
    engine.schedule(35, [&]() { engine.cancel(id); });
    engine.runUntil(1000);
    EXPECT_EQ(ticks, 3); // fired at 10, 20, 30; cancelled before 40
}

TYPED_TEST(ExecutorKernelTest, StepReturnsFalseWhenEmpty)
{
    Executor &engine = this->engine;
    EXPECT_FALSE(engine.step());
    engine.schedule(1, []() {});
    EXPECT_TRUE(engine.step());
    EXPECT_FALSE(engine.step());
}

TYPED_TEST(ExecutorKernelTest, ScheduleAtAbsoluteTime)
{
    Executor &engine = this->engine;
    Time firedAt = 0;
    engine.scheduleAt(123, [&]() { firedAt = engine.now(); });
    engine.runToCompletion();
    EXPECT_EQ(firedAt, 123u);
}

/** Callable that counts how often it is copied (moves are free). */
struct CopyCountingCallback
{
    std::shared_ptr<int> copies;

    explicit CopyCountingCallback(std::shared_ptr<int> counter)
        : copies(std::move(counter))
    {
    }
    CopyCountingCallback(const CopyCountingCallback &other)
        : copies(other.copies)
    {
        ++*copies;
    }
    CopyCountingCallback(CopyCountingCallback &&) noexcept = default;

    void operator()() const {}
};

TYPED_TEST(ExecutorKernelTest, DispatchMovesCallbacksOutOfTheQueue)
{
    // The hot path (one pop per event) moves each callback into its
    // slab cell once and runs it there; its captured state is never
    // copied.
    Executor &engine = this->engine;
    auto copies = std::make_shared<int>(0);
    for (int i = 0; i < 100; ++i)
        engine.schedule(static_cast<Time>(i), CopyCountingCallback(copies));
    const int afterScheduling = *copies;
    engine.runToCompletion();
    EXPECT_EQ(engine.eventsDispatched(), 100u);
    EXPECT_EQ(*copies, afterScheduling);
}

TYPED_TEST(ExecutorKernelTest, ManyEventsStressOrdering)
{
    Executor &engine = this->engine;
    Time last = 0;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i) {
        const Time when = static_cast<Time>((i * 7919) % 10007);
        engine.scheduleAt(when, [&, when]() {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    engine.runToCompletion();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(engine.eventsDispatched(), 10000u);
}

TYPED_TEST(ExecutorKernelTest, EveryCaptureIsDestroyedOnce)
{
    // Fired, cancelled and still-pending timers each destroy their
    // captures exactly once: fired ones after running, cancelled ones
    // when their tombstone is popped, pending ones with the engine.
    Lifetimes counts;
    {
        TypeParam local;
        Executor &engine = local;
        std::vector<TaskId> ids;
        for (int i = 0; i < 100; ++i)
            ids.push_back(engine.schedule(
                static_cast<Time>(i + 1),
                [t = Tracker(counts)]() { EXPECT_TRUE(t.alive); }));
        for (std::size_t i = 0; i < ids.size(); i += 3)
            engine.cancel(ids[i]);
        engine.runUntil(50);
        EXPECT_EQ(counts.live(), 50);
        EXPECT_EQ(engine.pendingEvents(), 50u);
    }
    EXPECT_EQ(counts.live(), 0);
}

TYPED_TEST(ExecutorKernelTest, RunningCallbackSurvivesNestedScheduling)
{
    // The callback runs in place in the kernel's slab. Scheduling
    // hundreds of timers from inside it grows the slab, and must
    // neither move nor reuse the running closure's cell.
    Executor &engine = this->engine;
    Lifetimes counts;
    std::array<std::uint8_t, 88> packet{};
    for (std::size_t i = 0; i < packet.size(); ++i)
        packet[i] = static_cast<std::uint8_t>(i);
    int nested = 0;
    bool intact = false;
    engine.schedule(1, [&, packet, t = Tracker(counts)]() {
        for (int i = 0; i < 300; ++i)
            engine.schedule(static_cast<Time>(i % 3), [&nested]() {
                ++nested;
            });
        intact = t.alive;
        for (std::size_t i = 0; i < packet.size(); ++i)
            intact = intact && packet[i] == i;
    });
    engine.runToCompletion();
    EXPECT_TRUE(intact);
    EXPECT_EQ(nested, 300);
    EXPECT_EQ(counts.live(), 0);
}

TYPED_TEST(ExecutorKernelTest, MoveOnlyAndHeapSizedCallbacksRun)
{
    Executor &engine = this->engine;
    const SiteId site = engine.addSite("worker");
    std::atomic<int> sum{0};
    std::array<std::uint8_t, Callback::kInlineBytes + 8> big{};
    big.back() = 3;
    engine.schedule(1, [&sum, owned = std::make_unique<int>(1)]() {
        sum += *owned;
    });
    engine.schedule(2, [&sum, big]() { sum += big.back(); });
    engine.post(site, [&sum, owned = std::make_unique<int>(10)]() {
        sum += *owned;
    });
    engine.post(site, [&sum, big]() { sum += 10 * big.back(); });
    engine.runToCompletion();
    EXPECT_EQ(sum.load(), 1 + 3 + 10 + 30);
}

} // namespace
} // namespace hydra::exec
