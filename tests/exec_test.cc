/**
 * @file
 * Tests for the executor abstraction: the SPSC handoff ring, the
 * deterministic SimExecutor's posts, the ThreadedExecutor's post /
 * barrier / cross-thread timer semantics, thread-safe Payload pool
 * conservation under concurrent traffic, cross-thread span stitching,
 * and the engine-aware model locks (ModelMutex, Cpu charges). Everything labeled `threaded` in ctest also runs under
 * ThreadSanitizer via `scripts/check.sh --tsan`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/payload.hh"
#include "exec/executor.hh"
#include "exec/model_mutex.hh"
#include "hw/cpu.hh"
#include "obs/metrics.hh"
#include "exec/sim_executor.hh"
#include "exec/spsc_queue.hh"
#include "exec/threaded_executor.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "tivo/harness.hh"

namespace hydra::exec {
namespace {

// ---------------------------------------------------------------- SPSC

TEST(SpscQueueTest, RoundsCapacityToPowerOfTwo)
{
    SpscQueue<int> q(100);
    EXPECT_EQ(q.capacity(), 128u);
    SpscQueue<int> q2(256);
    EXPECT_EQ(q2.capacity(), 256u);
}

TEST(SpscQueueTest, FifoSingleThread)
{
    SpscQueue<int> q(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(q.push(int(i)));
    int overflow = 99;
    EXPECT_FALSE(q.push(std::move(overflow))); // full
    for (int i = 0; i < 8; ++i) {
        int out = -1;
        ASSERT_TRUE(q.pop(out));
        EXPECT_EQ(out, i);
    }
    int empty;
    EXPECT_FALSE(q.pop(empty));
}

TEST(SpscQueueTest, TwoThreadsTransferEverythingInOrder)
{
    constexpr int kItems = 100000;
    SpscQueue<int> q(64);
    std::vector<int> received;
    received.reserve(kItems);

    std::thread consumer([&]() {
        int out;
        while (received.size() < kItems) {
            if (q.pop(out))
                received.push_back(out);
            else
                std::this_thread::yield();
        }
    });
    for (int i = 0; i < kItems; ++i) {
        while (!q.push(int(i)))
            std::this_thread::yield();
    }
    consumer.join();

    ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(received[i], i) << "reordered at " << i;
}

// -------------------------------------------------------- SimExecutor
//
// Timer semantics shared by both engines live in timer_queue_test.cc.

// The discrete-event contract the sim engine has always kept: timers fire
// in time order, a cancelled one never runs, and the clock stops at the
// last event that fired.
TEST(SimExecutorTest, MirrorsSimulatorSemantics)
{
    SimExecutor engine;
    EXPECT_STREQ(engine.backendName(), "sim");

    std::vector<int> order;
    engine.schedule(sim::microseconds(2), [&]() { order.push_back(2); });
    engine.schedule(sim::microseconds(1), [&]() { order.push_back(1); });
    const TaskId doomed =
        engine.schedule(sim::microseconds(3), [&]() { order.push_back(3); });
    engine.cancel(doomed);

    engine.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(engine.now(), sim::microseconds(2));
}

TEST(SimExecutorTest, PostRunsInFifoOrderWithoutAdvancingTime)
{
    SimExecutor engine;
    const SiteId site = engine.addSite("dev0");
    EXPECT_EQ(engine.siteCount(), 1u);

    engine.runUntil(sim::microseconds(5));
    std::vector<int> order;
    engine.post(site, [&]() { order.push_back(1); });
    engine.post(kMainSite, [&]() { order.push_back(2); });
    engine.post(site, [&]() { order.push_back(3); });
    EXPECT_TRUE(order.empty()); // nothing runs until the loop turns

    engine.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(engine.now(), sim::microseconds(5)); // time did not move
}

TEST(SimExecutorTest, DrainLeavesFutureTimersPending)
{
    SimExecutor engine;
    bool fired = false;
    engine.schedule(sim::milliseconds(1), [&]() { fired = true; });
    engine.drain();
    EXPECT_FALSE(fired);
    EXPECT_EQ(engine.pendingEvents(), 1u);
}

// ---------------------------------------------------- ThreadedExecutor

TEST(ThreadedExecutorTest, PostRunsOnTheSiteWorkerThread)
{
    ThreadedExecutor engine;
    const SiteId site = engine.addSite("nic");
    ASSERT_NE(site, kMainSite);
    EXPECT_EQ(engine.siteCount(), 1u);

    const std::thread::id coordinator = std::this_thread::get_id();
    std::atomic<bool> ran{false};
    std::thread::id workerThread;
    engine.post(site, [&]() {
        workerThread = std::this_thread::get_id();
        ran.store(true, std::memory_order_release);
    });
    engine.drain(); // barrier: waits for the worker
    ASSERT_TRUE(ran.load(std::memory_order_acquire));
    EXPECT_NE(workerThread, coordinator);
}

TEST(ThreadedExecutorTest, RunUntilIsABarrierForPostedWork)
{
    ThreadedExecutor engine;
    const SiteId a = engine.addSite("a");
    const SiteId b = engine.addSite("b");

    constexpr int kRounds = 2000;
    std::atomic<int> completed{0};
    engine.schedule(sim::microseconds(1), [&]() {
        for (int i = 0; i < kRounds; ++i) {
            // Site-to-site chain: coordinator -> a -> b.
            engine.post(a, [&, i]() {
                engine.post(b, [&]() {
                    completed.fetch_add(1, std::memory_order_relaxed);
                });
            });
        }
    });
    engine.runUntil(sim::milliseconds(1));
    EXPECT_EQ(completed.load(), kRounds);
    EXPECT_GE(engine.postsExecuted(), static_cast<std::uint64_t>(
                                          2 * kRounds));
}

TEST(ThreadedExecutorTest, WorkersCanScheduleTimersBack)
{
    ThreadedExecutor engine;
    const SiteId site = engine.addSite("disk");

    std::atomic<bool> timerFired{false};
    engine.post(site, [&]() {
        // Device completion re-enters virtual time from the worker.
        engine.schedule(sim::microseconds(3),
                        [&]() { timerFired.store(true); });
    });
    engine.runUntil(sim::milliseconds(1));
    EXPECT_TRUE(timerFired.load());
}

TEST(ThreadedExecutorTest, WorkerCancelsOfFiredTimersLeaveBoundedBacklog)
{
    // Regression: a cancel injected from a worker for a timer that had
    // already fired left a tombstone on the coordinator for the life
    // of the executor.
    ThreadedExecutor engine;
    const SiteId site = engine.addSite("canceller");
    for (int i = 0; i < 1000; ++i) {
        const TaskId id = engine.schedule(1, []() {});
        engine.runToCompletion();
        engine.post(site, [&engine, id]() { engine.cancel(id); });
        engine.drain(); // applies the injected cancel
    }
    EXPECT_LE(engine.cancelledBacklog(), 65u); // not 1000
}

TEST(ThreadedExecutorTest, PostOrderPreservedPerProducerSitePair)
{
    ThreadedExecutor engine;
    const SiteId site = engine.addSite("sink");

    constexpr int kItems = 5000; // > ring capacity: exercises overflow
    std::vector<int> seen;
    seen.reserve(kItems);
    for (int i = 0; i < kItems; ++i)
        engine.post(site, [&seen, i]() { seen.push_back(i); });
    engine.drain();

    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(seen[i], i) << "posting order broken at " << i;
}

// ----------------------------------------------- Payload conservation

TEST(PayloadThreadSafetyTest, PoolCountersConservedUnderContention)
{
    payloadPoolTrim();
    const PayloadPoolStats before = payloadPoolStats();

    constexpr int kThreads = 4;
    constexpr int kRounds = 5000;
    std::atomic<std::uint64_t> bytesSeen{0};

    // Each thread builds payloads, shares them (copy + slice), hands
    // some to a neighbor via the executor, and drops them — the exact
    // traffic shape of the threaded data path.
    auto engine = std::make_unique<ThreadedExecutor>();
    std::vector<SiteId> sites;
    for (int t = 0; t < kThreads; ++t)
        sites.push_back(engine->addSite("stress-" + std::to_string(t)));

    for (int t = 0; t < kThreads; ++t) {
        engine->post(sites[t], [&, t]() {
            for (int i = 0; i < kRounds; ++i) {
                PayloadBuilder builder;
                builder.buffer().assign(64 + (i % 7), std::uint8_t(i));
                Payload message = builder.seal();
                Payload copy = message;          // refcount traffic
                Payload body = message.slice(8, 32);
                bytesSeen.fetch_add(body.size(),
                                    std::memory_order_relaxed);
                // Cross-site handoff: the neighbor drops the last ref,
                // so release/recycle happens on a different thread
                // than allocation.
                engine->post(sites[(t + 1) % kThreads],
                            [kept = std::move(copy)]() {
                                (void)kept.size();
                            });
            }
        });
    }
    engine->drain();

    const PayloadPoolStats after = payloadPoolStats();
    const std::uint64_t acquired =
        (after.allocations - before.allocations) +
        (after.poolHits - before.poolHits);
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kThreads) * kRounds;
    // Conservation: every node acquired was exactly one builder seal,
    // and every one was either recycled into the freelist or freed
    // (over-capacity / pool-full) — never double-freed, never leaked
    // into the freelist twice.
    EXPECT_EQ(acquired, expected);
    EXPECT_GE(after.recycles, before.recycles);
    EXPECT_LE(after.recycles - before.recycles, acquired);
    // The shared list keeps at most 256 nodes and each thread's cache
    // (the workers' and this one's) at most 64.
    EXPECT_LE(after.freeNodes, 256u + (kThreads + 1) * 64u);
    EXPECT_EQ(bytesSeen.load(), expected * 32u);

    // The workers exit: their caches return to the shared list, so a
    // trim from this thread leaves nothing free anywhere.
    engine.reset();
    EXPECT_LE(payloadPoolStats().freeNodes, 256u + 64u);
    payloadPoolTrim();
    EXPECT_EQ(payloadPoolStats().freeNodes, 0u);
}

TEST(PayloadThreadSafetyTest, ExitingThreadReturnsItsCacheToTheSharedPool)
{
    payloadPoolTrim();
    const PayloadPoolStats base = payloadPoolStats();
    ASSERT_EQ(base.freeNodes, 0u);

    // Fewer nodes than one thread caches, so all stay in its cache
    // until the thread exits.
    constexpr std::size_t kNodes = 10;
    std::thread worker([] {
        std::vector<Payload> held;
        for (std::size_t i = 0; i < kNodes; ++i) {
            PayloadBuilder builder;
            builder.buffer().assign(100, static_cast<std::uint8_t>(i));
            held.push_back(builder.seal());
        }
    });
    worker.join();
    const PayloadPoolStats exited = payloadPoolStats();
    EXPECT_EQ(exited.allocations - base.allocations, kNodes);
    EXPECT_EQ(exited.recycles - base.recycles, kNodes);
    EXPECT_EQ(exited.freeNodes, kNodes);

    // This thread reuses every node the exited thread left behind.
    {
        std::vector<Payload> reused;
        for (std::size_t i = 0; i < kNodes; ++i)
            reused.push_back(PayloadBuilder().seal());
        const PayloadPoolStats during = payloadPoolStats();
        EXPECT_EQ(during.poolHits - exited.poolHits, kNodes);
        EXPECT_EQ(during.allocations, exited.allocations);
        EXPECT_EQ(during.freeNodes, 0u);
    }
    payloadPoolTrim();
    EXPECT_EQ(payloadPoolStats().freeNodes, 0u);
}

// -------------------------------------------- factory + full pipeline

TEST(ExecutorFactoryTest, MakesBothEnginesAndParsesNames)
{
    ExecutorKind kind = ExecutorKind::Sim;
    EXPECT_TRUE(parseExecutorKind("threaded", kind));
    EXPECT_EQ(kind, ExecutorKind::Threaded);
    EXPECT_TRUE(parseExecutorKind("sim", kind));
    EXPECT_EQ(kind, ExecutorKind::Sim);
    EXPECT_FALSE(parseExecutorKind("warp", kind));

    EXPECT_STREQ(makeExecutor(ExecutorKind::Sim)->backendName(), "sim");
    EXPECT_STREQ(makeExecutor(ExecutorKind::Threaded)->backendName(),
                 "threaded");
    EXPECT_STREQ(executorKindName(ExecutorKind::Sim), "sim");
    EXPECT_STREQ(executorKindName(ExecutorKind::Threaded), "threaded");
}

TEST(ThreadedIntegrationTest, FullTivoScenarioRunsOnThreadedEngine)
{
    // The complete offloaded/offloaded TiVo pipeline — deployment over
    // OOB channels, NIC -> GPU streaming, smart-disk recording — on
    // the threaded engine. Device sites get real worker threads; the
    // run must deploy and deliver just like the deterministic engine.
    tivo::TestbedConfig config;
    config.server = tivo::ServerKind::Offloaded;
    config.client = tivo::ClientKind::Offloaded;
    config.executor = ExecutorKind::Threaded;
    config.duration = sim::seconds(20);
    config.warmup = sim::seconds(2);
    config.sampleInterval = sim::seconds(2);
    config.movieFrames = 96;

    tivo::Testbed testbed(config);
    EXPECT_STREQ(testbed.executor().backendName(), "threaded");
    EXPECT_GE(testbed.executor().siteCount(), 4u); // NICs, disk, GPU

    const tivo::ScenarioResult result = testbed.run();
    ASSERT_TRUE(result.deploymentOk);
    EXPECT_GT(result.packetsReceived, 100u);
    EXPECT_GT(result.framesDisplayed, 100u);
    EXPECT_EQ(result.networkDrops, 0u);
}

// ------------------------------------------------------ span stitching

#if HYDRA_OBS_TRACING
TEST(ThreadedSpanTest, SpansFromDifferentThreadsStitchIntoOneTrace)
{
    auto &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.enable();
    obs::resetSpanIds();

    ThreadedExecutor engine;
    const SiteId site = engine.addSite("span-site");

    obs::SpanContext rootCtx, childCtx;
    {
        obs::Span root;
        root.open("test", "main", "root", "test", engine.now());
        rootCtx = root.context();

        std::atomic<bool> done{false};
        engine.post(site, [&, parent = root.context()]() {
            // The send stamps the context; the receiving site
            // restores it — spans on the worker nest under the root.
            obs::ContextScope scope(parent);
            obs::Span child;
            child.open("test", "worker", "child", "test", engine.now());
            childCtx = child.context();
            child.end(engine.now());
            done.store(true, std::memory_order_release);
        });
        engine.drain();
        ASSERT_TRUE(done.load(std::memory_order_acquire));
        root.end(engine.now());
    }

    EXPECT_EQ(childCtx.traceId, rootCtx.traceId);
    EXPECT_EQ(childCtx.parentId, rootCtx.spanId);
    EXPECT_NE(childCtx.spanId, rootCtx.spanId);
    tracer.disable();
}

TEST(ThreadedSpanTest, ConcurrentSpanIdsNeverCollide)
{
    auto &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.enable();
    obs::resetSpanIds();

    constexpr int kThreads = 4;
    constexpr int kSpans = 2000;
    std::vector<std::vector<std::uint64_t>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            ids[t].reserve(kSpans);
            std::string lane = "t";
            lane += std::to_string(t);
            for (int i = 0; i < kSpans; ++i) {
                obs::Span span;
                span.open("test", lane, "s", "test", 0);
                ids[t].push_back(span.context().spanId);
                span.end(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    std::set<std::uint64_t> unique;
    for (const auto &perThread : ids)
        unique.insert(perThread.begin(), perThread.end());
    EXPECT_EQ(unique.size(),
              static_cast<std::size_t>(kThreads) * kSpans);
    tracer.disable();
}
#endif // HYDRA_OBS_TRACING

// ------------------------------------------------------ Batch queue

TEST(SpscQueueBatchTest, BatchTransferPreservesFifoOrder)
{
    SpscQueue<int> q(64);
    for (int i = 0; i < 48; ++i)
        ASSERT_TRUE(q.push(int(i)));

    int out[64];
    // Asking for more than is queued drains what exists (partial).
    EXPECT_EQ(q.popBatch(out, 64), 48u);
    for (int i = 0; i < 48; ++i)
        ASSERT_EQ(out[i], i) << "batch reordered at " << i;
    EXPECT_EQ(q.popBatch(out, 64), 0u); // empty
}

TEST(SpscQueueBatchTest, PartialBatchWhenNearlyFull)
{
    SpscQueue<int> q(8);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(q.push(int(i)));
    EXPECT_EQ(q.sizeHint(), 8u);
    EXPECT_FALSE(q.push(8)); // full

    int out[8];
    // A batch smaller than the backlog takes a prefix and frees
    // exactly that many slots.
    ASSERT_EQ(q.popBatch(out, 3), 3u);
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(out[i], i);
    for (int i = 8; i < 11; ++i)
        ASSERT_TRUE(q.push(int(i)));
    EXPECT_FALSE(q.push(11)); // full again

    // The rest drains in order, possibly over several batches.
    std::vector<int> drained;
    while (drained.size() < 8) {
        const std::size_t n = q.popBatch(out, 8);
        ASSERT_GT(n, 0u);
        drained.insert(drained.end(), out, out + n);
    }
    EXPECT_EQ(q.popBatch(out, 8), 0u);
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(drained[i], i + 3);
}

TEST(SpscQueueBatchTest, FullBatchAfterProducerRefillsPastCachedTail)
{
    // The consumer's cached tail still holds the first 8 pushes when
    // 3 more land; a batch of 8 must see them all, not the 5 left of
    // its stale copy.
    SpscQueue<int> q(8);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(q.push(int(i)));
    int out[8];
    ASSERT_EQ(q.popBatch(out, 3), 3u);
    for (int i = 8; i < 11; ++i)
        ASSERT_TRUE(q.push(int(i)));

    ASSERT_EQ(q.popBatch(out, 8), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], i + 3);
    EXPECT_EQ(q.popBatch(out, 8), 0u);
}

TEST(SpscQueueBatchTest, BatchesWrapAroundTheRing)
{
    SpscQueue<int> q(8);
    int next = 0, expected = 0;
    int out[8];
    // 5-in / 5-out rounds on an 8-slot ring force the indices to
    // wrap past the capacity many times over.
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(q.push(next++));
        ASSERT_EQ(q.popBatch(out, 5), 5u);
        for (int i = 0; i < 5; ++i)
            ASSERT_EQ(out[i], expected++) << "wraparound broke FIFO";
    }
    EXPECT_EQ(q.sizeHint(), 0u);
}

TEST(SpscQueueBatchTest, FourThreadsBatchTransferInOrder)
{
    // Two independent rings, each with a dedicated producer and
    // consumer thread (SPSC discipline), all four running at once.
    // Pop batch sizes vary per round to cover partial drains and
    // wraparound interleavings; TSAN covers this via the `threaded`
    // ctest label.
    constexpr int kItems = 50000;
    SpscQueue<int> rings[2] = {SpscQueue<int>(64), SpscQueue<int>(64)};
    std::vector<int> received[2];

    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
        received[r].reserve(kItems);
        threads.emplace_back([&, r]() { // consumer
            int out[32];
            while (received[r].size() < kItems) {
                const std::size_t max = 1 + received[r].size() % 32;
                const std::size_t got = rings[r].popBatch(out, max);
                if (got == 0) {
                    std::this_thread::yield();
                    continue;
                }
                received[r].insert(received[r].end(), out, out + got);
            }
        });
        threads.emplace_back([&, r]() { // producer
            for (int next = 0; next < kItems;) {
                if (rings[r].push(int(next)))
                    ++next;
                else
                    std::this_thread::yield();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int r = 0; r < 2; ++r) {
        ASSERT_EQ(received[r].size(),
                  static_cast<std::size_t>(kItems));
        for (int i = 0; i < kItems; ++i)
            ASSERT_EQ(received[r][i], i)
                << "ring " << r << " reordered at " << i;
    }
}

// ------------------------------------------------ Bursts of posts

TEST(ThreadedExecutorTest, PostBatchPreservedOrderThroughOverflow)
{
    ThreadedExecutor::Config config;
    config.ringCapacity = 64; // small ring: a burst spills
    ThreadedExecutor engine(config);
    const SiteId site = engine.addSite("batch-sink");

    constexpr int kItems = 5000;
    std::vector<int> seen;
    seen.reserve(kItems);
    // Back-to-back posts outrun the 64-slot ring and spill to the
    // overflow lane; order must hold across the ring/spill handback.
    for (int i = 0; i < kItems; ++i)
        engine.post(site, [&seen, i]() { seen.push_back(i); });
    engine.drain();

    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(seen[i], i) << "batch posting order broken at " << i;

    // The drain path records every batch it executes.
    EXPECT_GT(
        obs::histogram("exec.batch_size", {{"site", "batch-sink"}})
            .count(),
        0u);
}

TEST(ThreadedExecutorTest, PostBatchFromManyProducersLosesNothing)
{
    ThreadedExecutor::Config config;
    config.ringCapacity = 128;
    ThreadedExecutor engine(config);
    const SiteId site = engine.addSite("mp-batch-sink");

    constexpr int kThreads = 4;
    constexpr int kPerThread = 4000;
    std::atomic<int> executed{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&]() {
            for (int i = 0; i < kPerThread; ++i)
                engine.post(site, [&executed]() {
                    executed.fetch_add(1, std::memory_order_relaxed);
                });
        });
    }
    for (auto &producer : producers)
        producer.join();
    engine.drain();
    EXPECT_EQ(executed.load(), kThreads * kPerThread);
}

// --------------------------------------------------------- model locks

/** Whether another thread can take @p mutex right now. */
template <typename Mutex>
bool
otherThreadAcquires(Mutex &mutex)
{
    bool acquired = false;
    std::thread other([&]() {
        acquired = mutex.try_lock();
        if (acquired)
            mutex.unlock();
    });
    other.join();
    return acquired;
}

TEST(ModelMutexTest, SimEngineTakesNoLock)
{
    SimExecutor sim;
    EXPECT_FALSE(sim.concurrentPosts());
    ModelMutex mutex(sim);
    RecursiveModelMutex recursive(sim);
    EXPECT_FALSE(mutex.locking());
    EXPECT_FALSE(recursive.locking());
    // Held here, yet another thread takes it at once: nothing was
    // locked.
    std::lock_guard<ModelMutex> held(mutex);
    std::lock_guard<RecursiveModelMutex> heldRecursive(recursive);
    EXPECT_TRUE(otherThreadAcquires(mutex));
    EXPECT_TRUE(otherThreadAcquires(recursive));
}

TEST(ModelMutexTest, ThreadedEngineExcludes)
{
    auto engine = makeExecutor(ExecutorKind::Threaded);
    EXPECT_TRUE(engine->concurrentPosts());
    ModelMutex mutex(*engine);
    ASSERT_TRUE(mutex.locking());
    {
        std::lock_guard<ModelMutex> held(mutex);
        EXPECT_FALSE(otherThreadAcquires(mutex));
    }
    EXPECT_TRUE(otherThreadAcquires(mutex));

    // A plain counter under the lock: every increment lands (and TSan
    // sees the lock order every access).
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::uint64_t counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&]() {
            for (int i = 0; i < kPerThread; ++i) {
                std::lock_guard<ModelMutex> lock(mutex);
                ++counter;
            }
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter, std::uint64_t{kThreads} * kPerThread);
}

TEST(ModelMutexTest, RecursiveVariantReentersButExcludesOthers)
{
    auto engine = makeExecutor(ExecutorKind::Threaded);
    RecursiveModelMutex mutex(*engine);
    ASSERT_TRUE(mutex.locking());
    std::lock_guard<RecursiveModelMutex> outer(mutex);
    {
        std::lock_guard<RecursiveModelMutex> inner(mutex);
        EXPECT_FALSE(otherThreadAcquires(mutex));
    }
    EXPECT_FALSE(otherThreadAcquires(mutex));
}

TEST(CpuChargeTest, ConcurrentChargesOnTheThreadedEngineAreNeverLost)
{
    // A fleet driver site and the coordinator may charge one host CPU
    // at once. Virtual time stands still here, so every charge queues
    // behind the others: the CPU is free at the sum of them all.
    auto engine = makeExecutor(ExecutorKind::Threaded);
    hw::Cpu cpu(*engine, "test.cpu", 2.4);
    constexpr int kThreads = 4;
    constexpr int kCharges = 5000;
    constexpr Time kCharge = 7;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&]() {
            for (int i = 0; i < kCharges; ++i)
                cpu.runFor(kCharge);
        });
    for (auto &thread : threads)
        thread.join();
    const Time total = Time{kThreads} * kCharges * kCharge;
    EXPECT_EQ(cpu.busyTime(), total);
    EXPECT_EQ(cpu.freeAt(), total);
}

} // namespace
} // namespace hydra::exec
