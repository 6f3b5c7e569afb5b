/**
 * @file
 * Fleet tests (DESIGN.md §14): consistent-hash placement, cross-host
 * channels over the wire fabric (FIFO + exactly-one-copy), the
 * sharded executive's id-indexed registry, and the open-loop load
 * generator on both execution engines.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bytes.hh"
#include "common/payload.hh"
#include "core/channel.hh"
#include "core/executive.hh"
#include "exec/executor.hh"
#include "exec/sim_executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "fleet/placement.hh"
#include "obs/metrics.hh"

namespace hydra::fleet {
namespace {

// ---------------------------------------------------------- placement

/** Name of the host @p ring places @p key on. */
const std::string &
ownerOf(const PlacementRing &ring, std::string_view key)
{
    return ring.hostName(ring.hostFor(key));
}

TEST(PlacementTest, HashIsStableAcrossCalls)
{
    EXPECT_EQ(placementHash("stream/0"), placementHash("stream/0"));
    EXPECT_NE(placementHash("stream/0"), placementHash("stream/1"));
}

TEST(PlacementTest, EmptyRingReturnsEmpty)
{
    PlacementRing ring;
    EXPECT_EQ(ring.hostFor("anything"), PlacementRing::kNoHost);
    EXPECT_EQ(ring.hostCount(), 0u);
}

TEST(PlacementTest, DeterministicAndBalanced)
{
    const std::vector<std::string> hosts{"host0", "host1", "host2",
                                         "host3"};
    PlacementRing a;
    PlacementRing b;
    a.rebuild(hosts);
    b.rebuild(hosts);
    EXPECT_EQ(a.hostCount(), 4u);
    EXPECT_EQ(a.pointCount(), 4u * 64u);

    std::map<std::string, std::size_t> load;
    for (int i = 0; i < 10000; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        const std::string owner = ownerOf(a, key);
        EXPECT_EQ(owner, ownerOf(b, key));
        ++load[owner];
    }
    ASSERT_EQ(load.size(), 4u);
    std::size_t lo = 10000;
    std::size_t hi = 0;
    for (const auto &[host, n] : load) {
        lo = std::min(lo, n);
        hi = std::max(hi, n);
    }
    // 64 vnodes/host keeps uniform keys within ~1.4x of each other;
    // allow 2x so the bound is about the mechanism, not the seed.
    EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 2.0);
}

TEST(PlacementTest, MembershipChangeMovesAboutOneNth)
{
    std::vector<std::string> hosts{"host0", "host1", "host2", "host3"};
    PlacementRing before;
    before.rebuild(hosts);
    hosts.push_back("host4");
    PlacementRing after;
    after.rebuild(hosts);

    int moved = 0;
    const int keys = 10000;
    for (int i = 0; i < keys; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        if (ownerOf(before, key) != ownerOf(after, key))
            ++moved;
    }
    // Consistent hashing: adding 1 of 5 hosts should move ~1/5 of the
    // keys, not reshuffle everything. Allow generous slack.
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, keys * 35 / 100);
}

TEST(PlacementTest, HostRemovalMovesOnlyTheDepartedShare)
{
    std::vector<std::string> hosts{"host0", "host1", "host2", "host3",
                                   "host4"};
    PlacementRing before;
    before.rebuild(hosts);
    hosts.erase(hosts.begin() + 2); // drop host2
    PlacementRing after;
    after.rebuild(hosts);

    int moved = 0;
    int orphansMoved = 0;
    int orphans = 0;
    const int keys = 10000;
    for (int i = 0; i < keys; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        const std::string was = ownerOf(before, key);
        const std::string now = ownerOf(after, key);
        if (was == "host2") {
            ++orphans;
            // Every key on the departed host must land somewhere else.
            EXPECT_NE(now, "host2") << key;
            if (was != now)
                ++orphansMoved;
        }
        if (was != now)
            ++moved;
    }
    // Removing 1 of 5 hosts relocates exactly the departed host's
    // keys (~1/5) and nothing else: keys homed on survivors stay put.
    EXPECT_GT(orphans, 0);
    EXPECT_EQ(moved, orphansMoved);
    EXPECT_LT(moved, keys * 35 / 100);
}

// ----------------------------------------------------------- topology

TEST(FleetTopologyTest, ResolvesSitesAcrossHostsButNotAliases)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    ASSERT_EQ(fleet.hostCount(), 4u);
    EXPECT_NE(fleet.findSite("host2.host"), nullptr);
    EXPECT_NE(fleet.findSite("host3-nic"), nullptr);
    // The generic alias stays host-local: resolving it fleet-wide
    // would silently pin every channel to host0.
    EXPECT_EQ(fleet.findSite("host"), nullptr);
    EXPECT_EQ(fleet.findSite("no-such-site"), nullptr);

    EXPECT_EQ(fleet.hostByName("host1"), &fleet.host(1));
    EXPECT_EQ(fleet.hostByName("hostX"), nullptr);
    EXPECT_EQ(fleet.hostOf(fleet.host(2).machine()), &fleet.host(2));

    // homeOf follows the ring.
    Host &home = fleet.homeOf("stream/7");
    EXPECT_EQ(ownerOf(fleet.placement(), "stream/7"), home.name());
}

// ------------------------------------------------- cross-host channel

struct Received
{
    std::vector<std::uint64_t> seqs;
};

core::Channel *
makeCrossHostChannel(Fleet &fleet, Host &from, Host &to,
                     Received &sink, std::size_t maxBytes = 512)
{
    core::ChannelConfig config;
    config.name = "test.fleet";
    config.targetDevice = to.nic().name();
    auto created = fleet.host(from.index())
                       .executive()
                       .createChannel(config, from.runtime().hostSite(),
                                      maxBytes);
    EXPECT_TRUE(created.ok()) << created.error().describe();
    if (!created.ok())
        return nullptr;
    core::Channel *channel = created.value();

    core::ExecutionSite *site =
        to.runtime().siteByName(config.targetDevice);
    EXPECT_NE(site, nullptr);
    auto endpoint = channel->connectSite(*site);
    EXPECT_TRUE(endpoint.ok());
    channel->installHandler(
        endpoint.value(), [&sink](const Payload &message, std::size_t) {
            ByteReader reader(message.data(), message.size());
            auto seq = reader.readU64();
            ASSERT_TRUE(seq.ok());
            sink.seqs.push_back(seq.value());
        });
    return channel;
}

Payload
stampedMessage(std::uint64_t seq, std::size_t bytes)
{
    PayloadBuilder builder;
    ByteWriter writer(builder.buffer());
    writer.writeU64(seq);
    if (builder.buffer().size() < bytes)
        builder.buffer().resize(bytes, 0);
    return builder.seal();
}

TEST(CrossHostChannelTest, FifoWithExactlyOneWireCopyPerMessage)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t wireBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "wire"}});
    const std::uint64_t gapBase = registry.counterValue("fleet.seq_gaps");

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(2), sink);
    ASSERT_NE(channel, nullptr);

    constexpr std::uint64_t kMessages = 50;
    for (std::uint64_t i = 0; i < kMessages; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    ASSERT_EQ(sink.seqs.size(), kMessages);
    for (std::uint64_t i = 0; i < kMessages; ++i)
        EXPECT_EQ(sink.seqs[i], i) << "out of order at " << i;

    // Exactly one buffered copy per message (header + body into the
    // wire frame); the receive side is a zero-copy slice.
    EXPECT_EQ(registry.counterValue("channel.payload_copies",
                                    {{"buffering", "wire"}}) -
                  wireBase,
              kMessages);
    EXPECT_EQ(registry.counterValue("fleet.seq_gaps") - gapBase, 0u);
    EXPECT_EQ(fleet.host(2).orphanFrames(), 0u);
    EXPECT_EQ(channel->stats().messagesSent, kMessages);
}

TEST(CrossHostChannelTest, IntraHostStreamsNeverTouchTheWire)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t wireBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "wire"}});

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(0), sink);
    ASSERT_NE(channel, nullptr);

    constexpr std::uint64_t kMessages = 20;
    for (std::uint64_t i = 0; i < kMessages; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    EXPECT_EQ(sink.seqs.size(), kMessages);
    EXPECT_EQ(registry.counterValue("channel.payload_copies",
                                    {{"buffering", "wire"}}) -
                  wireBase,
              0u)
        << "same-host channel crossed the wire";
}

TEST(CrossHostChannelTest, RoutesStandFromConnectUntilDestroy)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 3;
    Fleet fleet(exec, config);

    core::ChannelConfig channelConfig;
    channelConfig.targetDevice = fleet.host(1).nic().name();
    auto created = fleet.host(0).executive().createChannel(
        channelConfig, fleet.host(0).runtime().hostSite(), 128);
    ASSERT_TRUE(created.ok());
    core::Channel *channel = created.value();
    const core::ChannelId id = channel->id();
    // The id is bound before the creator connects, so the creator's
    // host routes it from the create on.
    EXPECT_TRUE(fleet.host(0).routes(id));
    EXPECT_FALSE(fleet.host(1).routes(id));

    core::ExecutionSite *site =
        fleet.host(1).runtime().siteByName(channelConfig.targetDevice);
    ASSERT_NE(site, nullptr);
    ASSERT_TRUE(channel->connectSite(*site).ok());
    // Right after the connect, before any write, both hosts route it.
    EXPECT_TRUE(fleet.host(0).routes(id));
    EXPECT_TRUE(fleet.host(1).routes(id));

    // A third endpoint on a unicast channel is refused, but only after
    // its host's route went up; the destroy must take that one down too.
    core::ExecutionSite *third =
        fleet.host(2).runtime().siteByName(fleet.host(2).nic().name());
    ASSERT_NE(third, nullptr);
    EXPECT_FALSE(channel->connectSite(*third).ok());
    EXPECT_EQ(channel->numEndpoints(), 2u);

    ASSERT_TRUE(fleet.host(0).executive().destroyChannelById(id).ok());
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        EXPECT_FALSE(fleet.host(h).routes(id)) << "host " << h;
}

TEST(CrossHostChannelTest, DestroyMidFlightOrphansFramesSafely)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(1), sink);
    ASSERT_NE(channel, nullptr);
    const core::ChannelId id = channel->id();

    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    // Destroy while the frames are still in flight on the fabric: the
    // receiver's route table entry disappears, so the frames must be
    // counted as orphans, not delivered into freed memory.
    ASSERT_TRUE(fleet.host(0).executive().destroyChannelById(id).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    EXPECT_EQ(sink.seqs.size() + fleet.host(1).orphanFrames(), 10u);
}

TEST(CrossHostChannelTest, FrameForChannelIdZeroIsAnOrphan)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);

    // A live stream, so host 1's route table is not empty.
    Received sink;
    ASSERT_NE(makeCrossHostChannel(fleet, fleet.host(0), fleet.host(1),
                                   sink),
              nullptr);

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t orphanBase =
        registry.counterValue("fleet.orphan_frames");

    PayloadBuilder builder;
    ByteWriter writer(builder.buffer());
    writer.writeU64(core::kInvalidChannel);
    writer.writeU32(0); // from
    writer.writeU32(1); // to
    writer.writeU64(0); // seq
    writer.writeU64(0); // sentAt
    builder.buffer().resize(kWireHeaderBytes + 16, 0);
    net::Packet frame;
    frame.dst = fleet.host(1).node();
    frame.dstPort = kFleetDevicePort;
    frame.srcPort = kFleetDevicePort;
    frame.payload = builder.seal();
    ASSERT_TRUE(fleet.host(0).nic().sendFromDevice(std::move(frame)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(5));
    exec.drain();

    EXPECT_EQ(fleet.host(1).orphanFrames(), 1u);
    EXPECT_EQ(registry.counterValue("fleet.orphan_frames") - orphanBase, 1u);
    EXPECT_TRUE(sink.seqs.empty());
}

/** Send @p payload to host 1's fleet device port from host 0. */
void
sendRawFrame(exec::SimExecutor &exec, Fleet &fleet, Payload payload)
{
    net::Packet frame;
    frame.dst = fleet.host(1).node();
    frame.dstPort = kFleetDevicePort;
    frame.srcPort = kFleetDevicePort;
    frame.payload = std::move(payload);
    ASSERT_TRUE(fleet.host(0).nic().sendFromDevice(std::move(frame)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(5));
    exec.drain();
}

TEST(WireHeaderTest, RoundTripsMaximumFieldValues)
{
    const WireHeader max{UINT64_MAX, UINT32_MAX, UINT32_MAX, UINT64_MAX,
                         UINT64_MAX};
    // Exactly the header's bytes, so ASan sees any access past them.
    Bytes frame(kWireHeaderBytes);
    writeWireHeader(frame.data(), max);
    EXPECT_EQ(frame, Bytes(kWireHeaderBytes, 0xff));
    WireHeader back;
    ASSERT_TRUE(readWireHeader(frame.data(), frame.size(), back));
    EXPECT_EQ(back.channel, max.channel);
    EXPECT_EQ(back.from, max.from);
    EXPECT_EQ(back.to, max.to);
    EXPECT_EQ(back.seq, max.seq);
    EXPECT_EQ(back.sentAt, max.sentAt);

    // Distinct bytes per field pin each offset and the little-endian
    // order: the layout ByteWriter's field-by-field framing produced.
    const WireHeader mixed{0x0102030405060708ull, 0x11121314u, 0x21222324u,
                           0x3132333435363738ull, 0x4142434445464748ull};
    writeWireHeader(frame.data(), mixed);
    Bytes expected;
    ByteWriter writer(expected);
    writer.writeU64(mixed.channel);
    writer.writeU32(mixed.from);
    writer.writeU32(mixed.to);
    writer.writeU64(mixed.seq);
    writer.writeU64(mixed.sentAt);
    EXPECT_EQ(frame, expected);
    ASSERT_TRUE(readWireHeader(frame.data(), frame.size(), back));
    EXPECT_EQ(back.channel, mixed.channel);
    EXPECT_EQ(back.from, mixed.from);
    EXPECT_EQ(back.to, mixed.to);
    EXPECT_EQ(back.seq, mixed.seq);
    EXPECT_EQ(back.sentAt, mixed.sentAt);

    EXPECT_FALSE(readWireHeader(frame.data(), kWireHeaderBytes - 1, back));
    EXPECT_FALSE(readWireHeader(nullptr, 0, back));
}

TEST(CrossHostChannelTest, ShortFramesAreDroppedAndCounted)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);
    Received sink;
    ASSERT_NE(makeCrossHostChannel(fleet, fleet.host(0), fleet.host(1),
                                   sink),
              nullptr);
    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t base =
        registry.counterValue("fleet.malformed_frames");

    // Adopted vectors of exactly these sizes: a read past the end of
    // either is an ASan error.
    sendRawFrame(exec, fleet, Payload(Bytes(kWireHeaderBytes - 1, 0)));
    sendRawFrame(exec, fleet, Payload(Bytes(1, 0)));

    EXPECT_EQ(fleet.host(1).malformedFrames(), 2u);
    EXPECT_EQ(registry.counterValue("fleet.malformed_frames") - base, 2u);
    EXPECT_EQ(fleet.host(1).orphanFrames(), 0u);
    EXPECT_TRUE(sink.seqs.empty());
}

TEST(CrossHostChannelTest, OutOfRangeEndpointsAreDroppedAndCounted)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);
    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(1), sink);
    ASSERT_NE(channel, nullptr);
    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t base =
        registry.counterValue("fleet.malformed_frames");

    // The channel has endpoints 0 and 1 only.
    const std::uint32_t bad[][2] = {{0, 2}, {2, 1}, {UINT32_MAX, 1},
                                    {0, UINT32_MAX}};
    for (const auto &[from, to] : bad) {
        Bytes frame(kWireHeaderBytes + 8, 0);
        writeWireHeader(frame.data(),
                        WireHeader{channel->id(), from, to, 0, 0});
        sendRawFrame(exec, fleet, Payload(std::move(frame)));
    }
    EXPECT_EQ(fleet.host(1).malformedFrames(), 4u);
    EXPECT_EQ(registry.counterValue("fleet.malformed_frames") - base, 4u);
    EXPECT_EQ(fleet.host(1).orphanFrames(), 0u);
    EXPECT_TRUE(sink.seqs.empty());

    // A well-formed frame on the same route still arrives.
    Bytes frame(kWireHeaderBytes + 8, 0);
    writeWireHeader(frame.data(), WireHeader{channel->id(), 0, 1, 0, 0});
    sendRawFrame(exec, fleet, Payload(std::move(frame)));
    EXPECT_EQ(sink.seqs.size(), 1u);
    EXPECT_EQ(fleet.host(1).malformedFrames(), 4u);
}

TEST(CrossHostChannelTest, MulticastAcrossThreeHostsKeepsPerPairFifo)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 3;
    Fleet fleet(exec, config);

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t wireBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "wire"}});
    const std::uint64_t gapBase = registry.counterValue("fleet.seq_gaps");

    // Creator on host0; one receiver at host1's NIC (device port) now,
    // a second at host2's host site (host port) once the first has
    // received traffic, so the per-pair sequence table is re-laid out
    // holding nonzero tx and rx counts.
    core::ChannelConfig cfg;
    cfg.name = "test.fleet.multicast";
    cfg.type = core::ChannelConfig::Type::Multicast;
    cfg.targetDevice = fleet.host(1).nic().name();
    auto created = fleet.host(0).executive().createChannel(
        cfg, fleet.host(0).runtime().hostSite(), 128);
    ASSERT_TRUE(created.ok()) << created.error().describe();
    core::Channel *channel = created.value();

    std::vector<Received> sinks(2);
    auto attach = [&](core::ExecutionSite &site, Received &sink) {
        auto endpoint = channel->connectSite(site);
        ASSERT_TRUE(endpoint.ok()) << endpoint.error().describe();
        channel->installHandler(
            endpoint.value(),
            [&sink](const Payload &message, std::size_t from) {
                EXPECT_EQ(from, 0u);
                ByteReader reader(message.data(), message.size());
                auto seq = reader.readU64();
                ASSERT_TRUE(seq.ok());
                sink.seqs.push_back(seq.value());
            });
    };
    core::ExecutionSite *nic1 =
        fleet.host(1).runtime().siteByName(cfg.targetDevice);
    ASSERT_NE(nic1, nullptr);
    attach(*nic1, sinks[0]);

    constexpr std::uint64_t kEarly = 20;
    constexpr std::uint64_t kLate = 30;
    for (std::uint64_t i = 0; i < kEarly; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(20));
    exec.drain();
    ASSERT_EQ(sinks[0].seqs.size(), kEarly);
    attach(fleet.host(2).runtime().hostSite(), sinks[1]);
    ASSERT_EQ(channel->numEndpoints(), 3u);
    for (std::uint64_t i = kEarly; i < kEarly + kLate; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    // Every receiver sees every message written after it joined, in
    // order, with no sequence gap across the re-layout.
    ASSERT_EQ(sinks[0].seqs.size(), kEarly + kLate);
    for (std::uint64_t i = 0; i < kEarly + kLate; ++i)
        EXPECT_EQ(sinks[0].seqs[i], i) << "host1 out of order at " << i;
    ASSERT_EQ(sinks[1].seqs.size(), kLate);
    for (std::uint64_t i = 0; i < kLate; ++i)
        EXPECT_EQ(sinks[1].seqs[i], kEarly + i)
            << "host2 out of order at " << i;
    EXPECT_EQ(registry.counterValue("fleet.seq_gaps") - gapBase, 0u);
    // Exactly one wire copy per remote leg.
    EXPECT_EQ(registry.counterValue("channel.payload_copies",
                                    {{"buffering", "wire"}}) -
                  wireBase,
              kEarly + 2 * kLate);
    EXPECT_EQ(fleet.host(1).orphanFrames(), 0u);
    EXPECT_EQ(fleet.host(2).orphanFrames(), 0u);
}

// --------------------------------------------------- executive shards

TEST(ExecutiveShardTest, IdIndexedRegistryIsExact)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);
    core::ChannelExecutive &shard = fleet.host(0).executive();

    const std::size_t before = shard.activeChannels();

    // Failed create (unresolvable target) must not leak a slot.
    core::ChannelConfig bad;
    bad.name = "test.bad";
    bad.targetDevice = "no-such-device";
    auto failed = shard.createChannel(
        bad, fleet.host(0).runtime().hostSite(), 256);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(shard.activeChannels(), before);

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(1), sink);
    ASSERT_NE(channel, nullptr);
    EXPECT_EQ(shard.activeChannels(), before + 1);
    EXPECT_EQ(shard.findChannel(channel->id()), channel);
    // Ids are process-wide: the other shard does not claim this one.
    EXPECT_EQ(fleet.host(1).executive().findChannel(channel->id()),
              nullptr);

    const core::ChannelId id = channel->id();
    ASSERT_TRUE(shard.destroyChannelById(id).ok());
    EXPECT_EQ(shard.activeChannels(), before);
    EXPECT_EQ(shard.findChannel(id), nullptr);
    EXPECT_FALSE(shard.destroyChannelById(id).ok());
}

// ------------------------------------------------------------ loadgen

TEST(LoadgenTest, SimOpenLoopDeliversAndCountsCopies)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    LoadgenConfig load;
    load.streams = 64;
    load.messageBytes = 128;
    load.offeredMsgsPerSec = 100000;
    load.duration = sim::milliseconds(20);
    auto report = runOpenLoop(fleet, load);

    EXPECT_EQ(report.hosts, 4u);
    EXPECT_EQ(report.remoteStreams + report.localStreams, 64u);
    EXPECT_GT(report.offered, 0u);
    EXPECT_EQ(report.writeFailures, 0u);
    // Open loop at a sustainable rate: (nearly) everything delivers.
    EXPECT_GT(report.delivered, report.offered * 9 / 10);
    EXPECT_EQ(report.latency.count, report.delivered);
    EXPECT_GT(report.latency.p50, 0.0);
    // Every cross-host message buffers exactly once at the sender,
    // and the zero-copy intra-host path performs no copies at all.
    EXPECT_GE(report.wireCopies, report.remoteStreams);
    EXPECT_EQ(report.zeroCopies, 0u);
    std::uint64_t perHostSum = 0;
    for (const auto &slice : report.perHost)
        perHostSum += slice.delivered;
    EXPECT_EQ(perHostSum, report.delivered);
}

TEST(LoadgenTest, ChurnKeepsTheFleetDelivering)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    LoadgenConfig load;
    load.streams = 32;
    load.messageBytes = 128;
    load.offeredMsgsPerSec = 50000;
    load.duration = sim::milliseconds(20);
    load.churnPerTick = 2;
    auto report = runOpenLoop(fleet, load);

    EXPECT_GT(report.churned, 0u);
    EXPECT_GT(report.delivered, 0u);
    EXPECT_EQ(report.writeFailures, 0u);
}

TEST(LoadgenTest, SimRunsAreDeterministic)
{
    const auto run = [] {
        exec::SimExecutor exec;
        FleetConfig config;
        config.hosts = 4;
        Fleet fleet(exec, config);
        LoadgenConfig load;
        load.streams = 48;
        load.messageBytes = 128;
        load.offeredMsgsPerSec = 80000;
        load.duration = sim::milliseconds(10);
        load.churnPerTick = 1;
        // The latency histogram is a process-global instrument;
        // zero it so both runs summarize identical populations.
        load.resetMetrics = true;
        return runOpenLoop(fleet, load);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.churned, b.churned);
    EXPECT_EQ(a.wireCopies, b.wireCopies);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
}

// --------------------------------------------------- threaded engine

TEST(FleetThreadedTest, CrossHostFifoOnThreadedExecutor)
{
    auto exec = exec::makeExecutor(exec::ExecutorKind::Threaded);
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(*exec, config);

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(1), fleet.host(3), sink);
    ASSERT_NE(channel, nullptr);

    constexpr std::uint64_t kMessages = 50;
    for (std::uint64_t i = 0; i < kMessages; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec->runUntil(exec->now() + sim::milliseconds(50));
    exec->drain();

    ASSERT_EQ(sink.seqs.size(), kMessages);
    for (std::uint64_t i = 0; i < kMessages; ++i)
        EXPECT_EQ(sink.seqs[i], i) << "out of order at " << i;
}

TEST(FleetThreadedTest, EndpointsJoinWhileAnotherDriverWrites)
{
    auto exec = exec::makeExecutor(exec::ExecutorKind::Threaded);
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(*exec, config);

    // Multicast channels from host 0 to host 1's NIC. Each later gains
    // endpoints on hosts 2 and 3, so every join brings a host whose
    // route the channel must still register.
    constexpr std::size_t kChannels = 8;
    std::vector<core::Channel *> channels;
    for (std::size_t c = 0; c < kChannels; ++c) {
        core::ChannelConfig channelConfig;
        channelConfig.type = core::ChannelConfig::Type::Multicast;
        channelConfig.targetDevice = fleet.host(1).nic().name();
        auto created = fleet.host(0).executive().createChannel(
            channelConfig, fleet.host(0).runtime().hostSite(), 128);
        ASSERT_TRUE(created.ok());
        core::ExecutionSite *site =
            fleet.host(1).runtime().siteByName(channelConfig.targetDevice);
        ASSERT_NE(site, nullptr);
        ASSERT_TRUE(created.value()->connectSite(*site).ok());
        channels.push_back(created.value());
    }

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t gapBase = registry.counterValue("fleet.seq_gaps");

    // Host 0's driver keeps writing into the channel host 2's driver
    // is joining (at most kMaxWrites per channel); the joiner waits for
    // one more pass of the writer's loop before each join. Joined
    // endpoints install no handler (that would race delivery); they
    // queue, and are polled after the run.
    constexpr std::uint64_t kJoins = 2 * kChannels;
    constexpr std::uint64_t kMaxWrites = 512;
    std::vector<std::uint64_t> sent(kChannels, 0); // host 0's driver only
    std::atomic<std::uint64_t> passes{0};
    std::atomic<std::uint64_t> joined{0};
    std::atomic<bool> failed{false};
    auto write = [&](std::size_t c) {
        if (!channels[c]->write(stampedMessage(sent[c]++, 128)).ok())
            failed = true;
    };
    exec->post(fleet.host(0).driverSite(), [&]() {
        for (std::uint64_t j; (j = joined.load()) < kJoins;
             passes.fetch_add(1)) {
            if (sent[j / 2] < kMaxWrites)
                write(j / 2);
            else
                std::this_thread::yield();
        }
        // A last write into every channel reaches every endpoint.
        for (std::size_t c = 0; c < kChannels; ++c)
            write(c);
    });
    exec->post(fleet.host(2).driverSite(), [&]() {
        for (std::uint64_t j = 0; j < kJoins; ++j) {
            const std::uint64_t seen = passes.load();
            while (passes.load() == seen)
                std::this_thread::yield();
            Host &host = fleet.host(2 + j % 2);
            core::ExecutionSite *site =
                host.runtime().siteByName(host.nic().name());
            if (!site || !channels[j / 2]->connectSite(*site).ok())
                failed = true;
            joined.store(j + 1);
        }
    });
    exec->runUntil(exec->now() + sim::milliseconds(100));
    exec->drain();

    EXPECT_FALSE(failed.load());
    ASSERT_EQ(joined.load(), kJoins);
    // Every receiver saw a gap-free suffix of its channel's writes:
    // from the first write after it joined through the last one.
    for (std::size_t c = 0; c < kChannels; ++c) {
        core::Channel *channel = channels[c];
        ASSERT_EQ(channel->numEndpoints(), 4u);
        for (std::size_t ep = 1; ep < channel->numEndpoints(); ++ep) {
            std::vector<std::uint64_t> seqs;
            while (auto message = channel->poll(ep)) {
                ByteReader reader(message.value().data(),
                                  message.value().size());
                seqs.push_back(reader.readU64().value());
            }
            ASSERT_FALSE(seqs.empty()) << "channel " << c << " ep " << ep;
            EXPECT_EQ(seqs.back(), sent[c] - 1)
                << "channel " << c << " ep " << ep;
            for (std::size_t i = 1; i < seqs.size(); ++i)
                ASSERT_EQ(seqs[i], seqs[i - 1] + 1)
                    << "channel " << c << " ep " << ep;
        }
        EXPECT_EQ(channel->stats().messagesDropped, 0u);
        fleet.host(0).executive().destroyChannelById(channel->id());
    }
    EXPECT_EQ(registry.counterValue("fleet.seq_gaps") - gapBase, 0u);
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        EXPECT_EQ(fleet.host(h).orphanFrames(), 0u) << "host " << h;
    exec->drain();
}

TEST(FleetThreadedTest, DriverStressWithChurn)
{
    auto exec = exec::makeExecutor(exec::ExecutorKind::Threaded);
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(*exec, config);

    LoadgenConfig load;
    load.streams = 48;
    load.messageBytes = 128;
    load.offeredMsgsPerSec = 50000;
    load.duration = sim::milliseconds(20);
    load.useDrivers = true; // per-host driver threads
    load.churnPerTick = 1;  // destroy/recreate under live traffic
    auto report = runOpenLoop(fleet, load);

    EXPECT_GT(report.delivered, 0u);
    EXPECT_GT(report.churned, 0u);
    EXPECT_EQ(report.writeFailures, 0u);
    // Driver mode forces cross-host placement.
    EXPECT_EQ(report.localStreams, 0u);
}

} // namespace
} // namespace hydra::fleet
