/**
 * @file
 * Unit tests for the refcounted Payload type and its buffer pool:
 * zero-copy adoption, reference counting, slices, the builder,
 * equality, and the freelist recycler's accounting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hh"
#include "common/payload.hh"
#include "exec/spsc_queue.hh"

namespace hydra {
namespace {

TEST(PayloadTest, DefaultIsEmpty)
{
    Payload p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.size(), 0u);
    EXPECT_EQ(p.data(), nullptr);
    EXPECT_EQ(p.refCount(), 0u);
    EXPECT_TRUE(p.slice(0, 10).empty());
    EXPECT_EQ(p, Payload());
}

TEST(PayloadTest, AdoptingBytesIsZeroCopy)
{
    Bytes bytes(100, 7);
    const std::uint8_t *raw = bytes.data();
    const auto copiesBefore = payloadPoolStats().deepCopies;

    Payload p(std::move(bytes));
    EXPECT_EQ(p.data(), raw); // same heap buffer, no copy
    EXPECT_EQ(p.size(), 100u);
    EXPECT_EQ(p.refCount(), 1u);
    EXPECT_EQ(payloadPoolStats().deepCopies, copiesBefore);
}

TEST(PayloadTest, CopyBumpsRefcountNotBytes)
{
    Payload p(Bytes(64, 1));
    const auto copiesBefore = payloadPoolStats().deepCopies;

    Payload q = p;
    EXPECT_EQ(q.data(), p.data()); // shared buffer
    EXPECT_EQ(p.refCount(), 2u);
    EXPECT_EQ(q.refCount(), 2u);
    EXPECT_EQ(payloadPoolStats().deepCopies, copiesBefore);

    { // more references come and go without touching the bytes
        Payload r = q;
        EXPECT_EQ(p.refCount(), 3u);
    }
    EXPECT_EQ(p.refCount(), 2u);
}

TEST(PayloadTest, MoveTransfersOwnership)
{
    Payload p(Bytes(16, 2));
    const std::uint8_t *raw = p.data();
    Payload q = std::move(p);
    EXPECT_EQ(q.data(), raw);
    EXPECT_EQ(q.refCount(), 1u);
    EXPECT_TRUE(p.empty()); // NOLINT: moved-from is valid and empty
    EXPECT_EQ(p.refCount(), 0u);
}

TEST(PayloadTest, ExplicitDeepCopyIsCounted)
{
    const Bytes bytes(32, 9);
    const auto before = payloadPoolStats().deepCopies;
    Payload p{Bytes(bytes)}; // adopts its own vector: not a payload copy
    EXPECT_EQ(p, bytes);
    EXPECT_EQ(payloadPoolStats().deepCopies, before);

    const Bytes out = p.toBytes(); // materializing is the deliberate copy
    EXPECT_EQ(out, bytes);
    EXPECT_NE(out.data(), p.data());
    EXPECT_EQ(payloadPoolStats().deepCopies, before + 1);
}

TEST(PayloadTest, SliceSharesTheBuffer)
{
    Bytes bytes;
    for (int i = 0; i < 20; ++i)
        bytes.push_back(static_cast<std::uint8_t>(i));
    Payload p(std::move(bytes));

    Payload mid = p.slice(5, 10);
    EXPECT_EQ(mid.size(), 10u);
    EXPECT_EQ(mid.data(), p.data() + 5); // zero-copy sub-range
    EXPECT_EQ(mid[0], 5u);
    EXPECT_EQ(p.refCount(), 2u);

    // Sub-slices compose: offsets are relative to the view.
    Payload inner = mid.slice(2, 3);
    EXPECT_EQ(inner.data(), p.data() + 7);
    EXPECT_EQ(inner.size(), 3u);
    EXPECT_EQ(p.refCount(), 3u);
}

TEST(PayloadTest, SliceClampsToBounds)
{
    Payload p(Bytes(10, 4));
    EXPECT_EQ(p.slice(8, 100).size(), 2u); // length clamped
    EXPECT_TRUE(p.slice(10, 1).empty());   // offset at end
    EXPECT_TRUE(p.slice(99, 1).empty());   // offset past end
    EXPECT_EQ(p.slice(99, 1).refCount(), 0u);
}

TEST(PayloadTest, SliceKeepsBufferAliveAfterParentDies)
{
    Payload tail;
    {
        Bytes bytes(128, 0xaa);
        bytes[120] = 0x55;
        Payload whole(std::move(bytes));
        tail = whole.slice(120, 8);
    } // `whole` released; `tail` still owns a reference
    EXPECT_EQ(tail.refCount(), 1u);
    ASSERT_EQ(tail.size(), 8u);
    EXPECT_EQ(tail[0], 0x55);
    EXPECT_EQ(tail[1], 0xaa);
}

TEST(PayloadTest, EqualityComparesContent)
{
    Payload a(Bytes{1, 2, 3});
    Payload b(Bytes{1, 2, 3});
    Payload c(Bytes{1, 2, 4});
    EXPECT_EQ(a, b); // distinct buffers, same content
    EXPECT_FALSE(a == c);
    EXPECT_EQ(a, (Bytes{1, 2, 3}));
    EXPECT_EQ((Bytes{1, 2, 3}), a);
    EXPECT_FALSE(a == Bytes({1, 2}));
}

TEST(PayloadBuilderTest, SealFreezesAccumulatedContent)
{
    PayloadBuilder builder;
    ByteWriter writer(builder.buffer());
    writer.writeU32(0xdeadbeef);
    writer.writeString("hello");
    Payload p = builder.seal();

    ByteReader reader(p.data(), p.size());
    EXPECT_EQ(reader.readU32().value(), 0xdeadbeefu);
    EXPECT_EQ(reader.readString().value(), "hello");
    EXPECT_EQ(p.refCount(), 1u);
}

TEST(PayloadBuilderTest, BuilderIsReusable)
{
    PayloadBuilder builder;
    builder.buffer().assign(4, 1);
    Payload first = builder.seal();
    builder.buffer().assign(8, 2); // fresh buffer after seal
    Payload second = builder.seal();
    EXPECT_EQ(first.size(), 4u);
    EXPECT_EQ(second.size(), 8u);
    EXPECT_NE(first.data(), second.data());
    EXPECT_EQ(first, Bytes(4, 1)); // untouched by the second build
}

TEST(PayloadPoolTest, FreelistRecyclesCapacity)
{
    payloadPoolTrim();
    const auto base = payloadPoolStats();
    EXPECT_EQ(base.freeNodes, 0u);

    {
        PayloadBuilder builder;
        builder.buffer().assign(256, 3);
        Payload p = builder.seal();
    } // last reference dropped: node goes back to the freelist
    const auto afterDrop = payloadPoolStats();
    EXPECT_EQ(afterDrop.recycles, base.recycles + 1);
    EXPECT_EQ(afterDrop.freeNodes, 1u);

    {
        PayloadBuilder builder;
        builder.buffer().assign(64, 4); // reuses the recycled node
        Payload p = builder.seal();
        const auto reused = payloadPoolStats();
        EXPECT_EQ(reused.poolHits, afterDrop.poolHits + 1);
        EXPECT_EQ(reused.allocations, afterDrop.allocations);
    }

    payloadPoolTrim();
    EXPECT_EQ(payloadPoolStats().freeNodes, 0u);
}

TEST(PayloadPoolTest, SteadyStateTrafficStopsAllocating)
{
    payloadPoolTrim();
    // Warm up: one round trip leaves pooled capacity behind.
    { Payload warm = PayloadBuilder().seal(); }
    const auto warmStats = payloadPoolStats();

    for (int i = 0; i < 100; ++i) {
        PayloadBuilder builder;
        builder.buffer().assign(1024, static_cast<std::uint8_t>(i));
        Payload p = builder.seal();
        Payload copy = p;     // refcount traffic, no pool traffic
        Payload s = p.slice(1, 10);
    }
    const auto after = payloadPoolStats();
    EXPECT_EQ(after.allocations, warmStats.allocations);
    EXPECT_EQ(after.poolHits, warmStats.poolHits + 100);
}

TEST(PayloadPoolTest, SpscSlotReleasesBufferAfterPop)
{
    // A popped ring slot must not retain a reference to the pooled
    // buffer: pop() resets the slot, so dropping the consumer's copy
    // returns the node to the freelist immediately instead of
    // waiting for the slot to be overwritten a full lap later.
    payloadPoolTrim();
    exec::SpscQueue<Payload> ring(8);
    const auto base = payloadPoolStats();

    {
        PayloadBuilder builder;
        builder.buffer().assign(512, 7);
        ASSERT_TRUE(ring.push(builder.seal()));
    }
    Payload out;
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(payloadPoolStats().recycles, base.recycles);

    out = Payload(); // last live reference — the slot holds none
    EXPECT_EQ(payloadPoolStats().recycles, base.recycles + 1);
    EXPECT_EQ(payloadPoolStats().freeNodes, 1u);
}

TEST(PayloadPoolTest, SpscBatchSlotsReleaseBuffersAfterPopBatch)
{
    payloadPoolTrim();
    exec::SpscQueue<Payload> ring(8);
    const auto base = payloadPoolStats();

    for (int i = 0; i < 4; ++i) {
        PayloadBuilder builder;
        builder.buffer().assign(256, static_cast<std::uint8_t>(i));
        ASSERT_TRUE(ring.push(builder.seal())); // slots hold the refs
    }

    Payload out[4];
    ASSERT_EQ(ring.popBatch(out, 4), 4u);
    EXPECT_EQ(payloadPoolStats().recycles, base.recycles);

    for (Payload &p : out)
        p = Payload(); // consumed slots were cleared by popBatch
    EXPECT_EQ(payloadPoolStats().recycles, base.recycles + 4);
    EXPECT_EQ(payloadPoolStats().freeNodes, 4u);
}

} // namespace
} // namespace hydra
