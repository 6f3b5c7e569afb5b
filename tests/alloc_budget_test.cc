/**
 * @file
 * Allocation budgets of the steady-state message path and of stream
 * churn. This binary replaces the global operator new/delete with
 * counting versions and stands up a 4-host sim fleet carrying both
 * cross-host (wire) and same-host (DMA ring) streams. After warm-up,
 * sending and delivering more messages must make no C++ heap
 * allocation at all: every closure fits exec::Callback's inline
 * buffer, timers wait in the kernel's slab, DMA completions in the
 * engine's slots, and payloads come from the pool. Destroying and
 * re-creating a stream may allocate the channel object and a handler
 * capture too large for std::function's inline buffer, and nothing
 * else: the id tables are flat, the latency series is cached on the
 * creator's site, and unicast per-channel state is inline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/payload.hh"
#include "core/channel.hh"
#include "core/executive.hh"
#include "exec/sim_executor.hh"
#include "fleet/fleet.hh"

namespace {

/** Allocations made while `counting` is set (any thread). */
std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *ptr = align <= alignof(std::max_align_t)
                    ? std::malloc(size)
                    : std::aligned_alloc(align, (size + align - 1) /
                                                    align * align);
    return ptr;
}

/** Out of line, so no caller sees new paired with free(). */
[[gnu::noinline]] void
countedFree(void *ptr) noexcept
{
    std::free(ptr);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *ptr = countedAlloc(size, alignof(std::max_align_t)))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *ptr = countedAlloc(size, static_cast<std::size_t>(align)))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void operator delete(void *ptr) noexcept { countedFree(ptr); }
void operator delete[](void *ptr) noexcept { countedFree(ptr); }
void operator delete(void *ptr, std::size_t) noexcept { countedFree(ptr); }
void operator delete[](void *ptr, std::size_t) noexcept { countedFree(ptr); }
void
operator delete(void *ptr, std::align_val_t) noexcept
{
    countedFree(ptr);
}
void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    countedFree(ptr);
}
void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    countedFree(ptr);
}
void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    countedFree(ptr);
}

namespace hydra::fleet {
namespace {

constexpr std::size_t kStreams = 64;
constexpr std::size_t kMessageBytes = 256;
/** Writes per pacing tick, spread round-robin over the streams. */
constexpr std::size_t kPerTick = 32;
constexpr sim::SimTime kTick = sim::microseconds(100);

class AllocBudgetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FleetConfig config;
        config.hosts = 4;
        fleet = std::make_unique<Fleet>(executor, config);
        for (std::size_t i = 0; i < kStreams; ++i)
            addStream(i);
        executor.drain();
    }

    void
    TearDown() override
    {
        for (const Stream &stream : streams)
            stream.home->executive().destroyChannelById(stream.id);
        executor.drain();
    }

    struct Stream
    {
        Host *home = nullptr;
        Host *target = nullptr;
        core::Channel *channel = nullptr;
        core::ChannelId id = core::kInvalidChannel;
    };

    /** Every fourth stream stays on its home host (the ring path);
     * the rest cross to the next host over the wire. */
    void
    addStream(std::size_t index)
    {
        Stream stream;
        stream.home = &fleet->homeOf("stream/" + std::to_string(index));
        stream.target = index % 4 == 0
                            ? stream.home
                            : &fleet->host((stream.home->index() + 1) % 4);
        open(stream);
        if (stream.home == stream.target)
            ++localStreams;
        streams.push_back(stream);
    }

    /** Create, connect and install one stream's channel: the whole
     * lifecycle a churn repeats. */
    void
    open(Stream &stream)
    {
        core::ChannelConfig config;
        config.name = "alloc.stream";
        config.targetDevice = stream.target->nic().name();
        auto created = stream.home->executive().createChannel(
            config, stream.home->runtime().hostSite(), kMessageBytes);
        ASSERT_TRUE(created);
        stream.channel = created.value();
        stream.id = stream.channel->id();
        core::ExecutionSite *site =
            stream.target->runtime().siteByName(config.targetDevice);
        ASSERT_NE(site, nullptr);
        auto endpoint = stream.channel->connectSite(*site);
        ASSERT_TRUE(endpoint);
        stream.channel->installHandler(
            endpoint.value(),
            [this](const Payload &, std::size_t) { ++delivered; });
    }

    /** Destroy one stream and open it again (same hosts). */
    void
    churn(Stream &stream)
    {
        ASSERT_TRUE(
            stream.home->executive().destroyChannelById(stream.id));
        open(stream);
    }

    /** Write @p ticks x kPerTick messages, one tick apart, and let
     * every one of them arrive. */
    void
    send(std::size_t ticks)
    {
        for (std::size_t t = 0; t < ticks; ++t) {
            for (std::size_t k = 0; k < kPerTick; ++k) {
                const Stream &stream = streams[cursor++ % streams.size()];
                PayloadBuilder builder;
                ByteWriter writer(builder.buffer());
                writer.writeU64(static_cast<std::uint64_t>(executor.now()));
                builder.buffer().resize(kMessageBytes, 0);
                ASSERT_TRUE(stream.channel->write(builder.seal()));
                ++written;
            }
            executor.runUntil(executor.now() + kTick);
        }
        executor.runUntil(executor.now() + sim::milliseconds(5));
    }

    exec::SimExecutor executor;
    std::unique_ptr<Fleet> fleet;
    std::vector<Stream> streams;
    std::size_t localStreams = 0;
    std::size_t cursor = 0;
    std::uint64_t written = 0;
    std::uint64_t delivered = 0;
};

TEST_F(AllocBudgetTest, SteadyStateMessagesAllocateNothing)
{
    // Both paths are present: same-host ring streams and wire ones.
    ASSERT_GT(localStreams, 0u);
    ASSERT_LT(localStreams, kStreams);

    // Warm-up grows every pool, slab, free list and vector to its
    // steady-state size.
    send(50);
    ASSERT_EQ(delivered, written);

    const std::uint64_t before = written;
    allocations.store(0);
    counting.store(true);
    send(100);
    counting.store(false);
    const std::uint64_t messages = written - before;

    EXPECT_EQ(delivered, written);
    EXPECT_EQ(messages, 100u * kPerTick);
    EXPECT_EQ(allocations.load(), 0u)
        << static_cast<double>(allocations.load()) /
               static_cast<double>(messages)
        << " heap allocations per message";
}

TEST_F(AllocBudgetTest, StreamChurnAllocatesOnlyTheChannel)
{
    // Warm-up: traffic, then one churn of every stream, so the id
    // tables, series caches, pools and free lists reach steady size.
    send(10);
    for (Stream &stream : streams)
        churn(stream);
    executor.drain();

    for (const bool sameHost : {false, true}) {
        Stream *stream = nullptr;
        for (Stream &candidate : streams)
            if ((candidate.home == candidate.target) == sameHost) {
                stream = &candidate;
                break;
            }
        ASSERT_NE(stream, nullptr);
        std::uint64_t most = 0;
        for (int round = 0; round < 16; ++round) {
            allocations.store(0);
            counting.store(true);
            churn(*stream);
            counting.store(false);
            most = std::max(most, allocations.load());
        }
        // The channel object, plus a handler capture that outgrows
        // std::function's inline buffer.
        EXPECT_LE(most, 2u)
            << (sameHost ? "same-host DMA-ring" : "cross-host")
            << " stream: heap allocations per destroy + create";
    }

    // Churned streams still deliver.
    send(10);
    EXPECT_EQ(delivered, written);
}

} // namespace
} // namespace hydra::fleet
