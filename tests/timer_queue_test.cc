/**
 * @file
 * Tests for the virtual-time event queue: TimerQueue on its own, then
 * the timer semantics every engine must share, run through the
 * Executor interface on both SimExecutor and ThreadedExecutor.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
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
    TimerQueue::Timer timer;
    while (queue.popDue(kForever, timer)) {
        timer.fn();
        ++ran;
    }
    return ran;
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
    // The hot path (one pop per event) must move the callback and its
    // captured state out of the heap, never copy it.
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

} // namespace
} // namespace hydra::exec
