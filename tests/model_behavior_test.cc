/**
 * @file
 * Behavioural tests of the cost models that drive the paper's
 * results: wakeup-distribution statistics of the OS model, network
 * contention serialization, bus estimation, and device-timer versus
 * host-timer precision — the quantitative heart of Table 2.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "core/offcode.hh"
#include "core/providers.hh"
#include "core/proxy.hh"
#include "dev/nic.hh"
#include "hw/machine.hh"
#include "net/network.hh"

#include "exec/sim_executor.hh"

namespace hydra {
namespace {

TEST(OsModelTest, WakeupDistributionMatchesConfiguredNoise)
{
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    hw::OsKernel &os = machine.os();

    SampleSet lateness; // beyond the deterministic tick expiry
    for (int i = 0; i < 5000; ++i) {
        const sim::SimTime wake = os.wakeAfter(sim::milliseconds(5));
        lateness.add(sim::toMilliseconds(wake) - 6.0);
    }
    // Half-normal noise plus occasional +1 tick preemption.
    EXPECT_GE(lateness.min(), 0.0);
    EXPECT_LT(lateness.median(), 0.5);
    // Preemption probability ~7 %: p90 below one tick, p99 above.
    EXPECT_LT(lateness.percentile(90), 1.0);
    EXPECT_GT(lateness.percentile(99), 1.0);
}

TEST(OsModelTest, QuietConfigIsDeterministic)
{
    exec::SimExecutor sim;
    hw::MachineConfig config;
    config.os.wakeupNoiseSigma = 0;
    config.os.preemptionProbability = 0.0;
    hw::Machine machine(sim, config);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(machine.os().wakeAfter(sim::milliseconds(5)),
                  sim::milliseconds(6));
}

TEST(OsModelTest, DeviceTimerBeatsHostTimerPrecision)
{
    // The crux of Table 2: device hardware timers are orders of
    // magnitude more precise than tick-quantized host sleeps.
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    net::Network net(sim, net::NetworkConfig{});
    dev::ProgrammableNic nic(sim, machine.bus(), net, net.addNode("n"));

    SampleSet hostError, deviceError;
    for (int i = 0; i < 2000; ++i) {
        hostError.add(sim::toMicroseconds(
            machine.os().wakeAfter(sim::milliseconds(5)) -
            sim::milliseconds(5)));
    }
    int remaining = 2000;
    std::function<void()> arm = [&]() {
        if (remaining-- == 0)
            return;
        const sim::SimTime asked = sim.now() + sim::milliseconds(5);
        nic.timerAfter(sim::milliseconds(5), [&, asked]() {
            deviceError.add(sim::toMicroseconds(sim.now() - asked));
            arm();
        });
    };
    arm();
    sim.runToCompletion();

    EXPECT_GT(hostError.mean(), 900.0);  // ~1 tick or more, in us
    EXPECT_LT(deviceError.mean(), 100.0); // tens of us
    EXPECT_GT(hostError.stddev(), 5.0 * deviceError.stddev());
    EXPECT_GT(hostError.mean(), 10.0 * deviceError.mean());
}

TEST(NetworkModelTest, ReceiverDownlinkSerializesConcurrentSenders)
{
    exec::SimExecutor sim;
    net::NetworkConfig config;
    config.linkLatency = 0;
    config.switchLatency = 0;
    net::Network net(sim, config);
    const net::NodeId a = net.addNode("a");
    const net::NodeId b = net.addNode("b");
    const net::NodeId sink = net.addNode("sink");

    std::vector<sim::SimTime> deliveries;
    net.bind(sink, 1, [&](const net::Packet &) {
        deliveries.push_back(sim.now());
    });

    auto makePacket = [&](net::NodeId src) {
        net::Packet p;
        p.src = src;
        p.dst = sink;
        p.dstPort = 1;
        p.payload = Bytes(1458, 0); // 1500 B on the wire
        return p;
    };
    // Both senders transmit simultaneously; the sink's downlink can
    // only carry one frame at a time.
    net.send(makePacket(a));
    net.send(makePacket(b));
    sim.runToCompletion();

    ASSERT_EQ(deliveries.size(), 2u);
    const sim::SimTime wire = sim::transferTime(1500, 1.0);
    EXPECT_GE(deliveries[1] - deliveries[0], wire);
}

TEST(BusModelTest, EstimateMatchesActualCompletion)
{
    exec::SimExecutor sim;
    hw::Bus bus(sim, "pci", 8.0, 700);
    const sim::SimTime estimate = bus.estimateCompletion(4096);
    sim::SimTime actual = 0;
    bus.transfer(4096, [&]() { actual = sim.now(); });
    sim.runToCompletion();
    EXPECT_EQ(actual, estimate);
}

TEST(BusModelTest, ContentionDelaysLaterEstimates)
{
    exec::SimExecutor sim;
    hw::Bus bus(sim, "pci", 8.0, 0);
    bus.transfer(8192, []() {});
    // A second transfer queues behind the first.
    const sim::SimTime estimate = bus.estimateCompletion(8192);
    EXPECT_GE(estimate, 2 * sim::transferTime(8192, 8.0));
}

TEST(StatsRenderTest, HistogramRenderShowsBars)
{
    Histogram h(0.0, 10.0, 5);
    for (int i = 0; i < 50; ++i)
        h.add(1.0);
    h.add(9.0);
    const std::string out = h.render(10);
    EXPECT_NE(out.find("##########"), std::string::npos); // peak bin
    EXPECT_NE(out.find("\n"), std::string::npos);
    EXPECT_EQ(h.totalCount(), 51u);
}

TEST(ProxyTest, OneWayInvocationLeavesNoPending)
{
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    net::Network net(sim, net::NetworkConfig{});
    dev::ProgrammableNic nic(sim, machine.bus(), net, net.addNode("n"));
    core::HostSite host(machine);
    core::DeviceSite device(machine, nic);

    class Counter : public core::Offcode
    {
      public:
        Counter() : Offcode("counter")
        {
            registerMethod("Tick", [this](const Bytes &) -> Result<Bytes> {
                ++ticks;
                return Bytes{};
            });
        }
        int ticks = 0;
    };

    Counter counter;
    core::OffcodeContext ctx;
    ctx.site = &device;
    counter.doInitialize(ctx);
    counter.doStart();

    core::DmaRingChannelProvider provider(sim, false);
    auto channel = provider.create(core::ChannelConfig{});
    ASSERT_TRUE(channel->connectCreator(host).ok());
    channel->connectOffcode(counter);

    core::Proxy proxy(*channel, counter.guid(), counter.guid());
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(proxy.invokeOneWay("Tick", Bytes{}).ok());
    sim.runToCompletion();

    EXPECT_EQ(counter.ticks, 5);
    EXPECT_EQ(proxy.pendingCalls(), 0u);
    // One-way calls produce no Return traffic back to endpoint 0.
    EXPECT_FALSE(channel->poll(0).ok());
}

TEST(DeviceEdgeTest, FreeLocalClampsAtZero)
{
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    dev::DeviceConfig config;
    config.localMemoryBytes = 1024;
    dev::Device device(sim, machine.bus(), config,
                       dev::DeviceClassSpec{});
    device.allocateLocal(100);
    device.freeLocal(5000); // over-free must not underflow
    EXPECT_EQ(device.localMemoryUsed(), 0u);
    EXPECT_EQ(device.localMemoryFree(), 1024u);
}

TEST(NetworkEdgeTest, NodeNamesAndUnknownNode)
{
    exec::SimExecutor sim;
    net::Network net(sim, net::NetworkConfig{});
    const net::NodeId a = net.addNode("alpha");
    EXPECT_EQ(net.nodeName(a), "alpha");
    EXPECT_EQ(net.nodeName(999), "<unknown>");
    EXPECT_EQ(net.nodeCount(), 1u);
}

TEST(StatsEdgeTest, AddAllAndClear)
{
    SampleSet s;
    s.addAll({1.0, 2.0, 3.0});
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    s.clear();
    EXPECT_TRUE(s.empty());
}

TEST(StatsEdgeTest, CdfOfConstantSeries)
{
    SampleSet s;
    for (int i = 0; i < 10; ++i)
        s.add(5.0);
    const auto cdf = empiricalCdf(s);
    ASSERT_EQ(cdf.size(), 1u);
    EXPECT_DOUBLE_EQ(cdf[0].value, 5.0);
    EXPECT_DOUBLE_EQ(cdf[0].probability, 1.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

} // namespace
} // namespace hydra
