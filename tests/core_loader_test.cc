/**
 * @file
 * Focused tests for the loading pipeline (paper §4.2), Offcode
 * lifecycle edge cases, and Channel Executive provider selection
 * with instrumented fake providers.
 */

#include <gtest/gtest.h>

#include "core/loader.hh"
#include "core/runtime.hh"
#include "dev/nic.hh"
#include "hw/machine.hh"
#include "net/network.hh"

#include "exec/sim_executor.hh"

namespace hydra::core {
namespace {

class NullOffcode : public Offcode
{
  public:
    explicit NullOffcode(std::string name) : Offcode(std::move(name)) {}
};

DepotEntry
makeEntry(const std::string &bindname, std::size_t image_bytes)
{
    DepotEntry entry;
    auto manifest = odf::OdfDocument::parse(
        "<offcode><package><bindname>" + bindname +
        "</bindname></package>"
        "<targets><device-class id=\"0x0001\"/>"
        "<host-fallback/></targets></offcode>");
    entry.manifest = manifest.value();
    entry.factory = [bindname]() {
        return std::make_unique<NullOffcode>(bindname);
    };
    entry.imageBytes = image_bytes;
    return entry;
}

class LoaderFixture : public ::testing::Test
{
  protected:
    LoaderFixture()
        : machine_(sim_, hw::MachineConfig{}),
          net_(sim_, net::NetworkConfig{}),
          nic_(sim_, machine_.bus(), net_, net_.addNode("nic"))
    {
    }

    exec::SimExecutor sim_;
    hw::Machine machine_;
    net::Network net_;
    dev::ProgrammableNic nic_;
};

TEST_F(LoaderFixture, HostLoaderChargesLinkCycles)
{
    HostLoader loader(machine_);
    const DepotEntry entry = makeEntry("x", 128 * 1024);
    const auto busyBefore = machine_.cpu().busyTime();
    bool done = false;
    loader.load(entry, [&](Status s) { done = s.ok(); });
    sim_.runToCompletion();
    EXPECT_TRUE(done);
    EXPECT_GT(machine_.cpu().busyTime(), busyBefore);
}

TEST_F(LoaderFixture, DeviceLoaderPipelineAndAccounting)
{
    DeviceDmaLoader loader(machine_, nic_);
    const DepotEntry entry = makeEntry("y", 256 * 1024);

    const auto busBefore = machine_.bus().stats().bytesMoved;
    bool done = false;
    sim::SimTime completedAt = 0;
    loader.load(entry, [&](Status s) {
        done = s.ok();
        completedAt = sim_.now();
    });
    EXPECT_FALSE(done); // allocate RTT hasn't elapsed yet
    sim_.runToCompletion();
    ASSERT_TRUE(done);
    EXPECT_EQ(loader.imagesLoaded(), 1u);

    // The image crossed the bus.
    EXPECT_GE(machine_.bus().stats().bytesMoved - busBefore,
              entry.imageBytes);
    // Device memory holds image + runtime heap.
    EXPECT_GE(nic_.localMemoryUsed(),
              entry.imageBytes + entry.manifest.requiredMemoryBytes);
    // The pipeline takes real simulated time (allocate RTT alone is
    // 40 us).
    EXPECT_GT(completedAt, sim::microseconds(40));

    loader.unload(entry);
    EXPECT_EQ(nic_.localMemoryUsed(), 0u);
}

TEST_F(LoaderFixture, LargerImagesTakeLonger)
{
    DeviceDmaLoader loader(machine_, nic_);
    sim::SimTime small = 0, large = 0;

    loader.load(makeEntry("small", 16 * 1024),
                [&](Status) { small = sim_.now(); });
    sim_.runToCompletion();
    const sim::SimTime start = sim_.now();
    loader.load(makeEntry("large", 2 * 1024 * 1024),
                [&](Status) { large = sim_.now() - start; });
    sim_.runToCompletion();
    EXPECT_GT(large, small);
}

TEST_F(LoaderFixture, ExhaustedDeviceFailsCleanly)
{
    DeviceDmaLoader loader(machine_, nic_);
    // NIC default local memory is 16 MB.
    const DepotEntry huge = makeEntry("huge", 64 * 1024 * 1024);
    Status result = Status::success();
    bool called = false;
    loader.load(huge, [&](Status s) {
        called = true;
        result = s;
    });
    sim_.runToCompletion();
    ASSERT_TRUE(called);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.code(), ErrorCode::OutOfMemory);
    EXPECT_EQ(loader.imagesLoaded(), 0u);
}

// ------------------------------------------------ lifecycle edge cases

TEST(OffcodeLifecycleTest, FailingInitializeFaults)
{
    class Faulty : public Offcode
    {
      public:
        Faulty() : Offcode("faulty") {}

      protected:
        Status
        initialize() override
        {
            return Status(ErrorCode::DeviceFault, "nope");
        }
    };

    Faulty offcode;
    OffcodeContext ctx;
    EXPECT_FALSE(offcode.doInitialize(ctx).ok());
    EXPECT_EQ(offcode.state(), OffcodeState::Faulted);
    // A faulted Offcode cannot start.
    EXPECT_FALSE(offcode.doStart().ok());
}

TEST(OffcodeLifecycleTest, FailingStartFaults)
{
    class Faulty : public Offcode
    {
      public:
        Faulty() : Offcode("faulty") {}

      protected:
        Status
        start() override
        {
            return Status(ErrorCode::ChannelNotConnected, "peer gone");
        }
    };

    Faulty offcode;
    OffcodeContext ctx;
    ASSERT_TRUE(offcode.doInitialize(ctx).ok());
    EXPECT_FALSE(offcode.doStart().ok());
    EXPECT_EQ(offcode.state(), OffcodeState::Faulted);
}

TEST(OffcodeLifecycleTest, StopIsIdempotentAndOrdered)
{
    class Counting : public Offcode
    {
      public:
        Counting() : Offcode("counting") {}
        int stops = 0;

      protected:
        void stop() override { ++stops; }
    };

    Counting offcode;
    OffcodeContext ctx;
    offcode.doInitialize(ctx);
    offcode.doStart();
    offcode.doStop();
    offcode.doStop(); // second stop is a no-op
    EXPECT_EQ(offcode.stops, 1);
    EXPECT_EQ(offcode.state(), OffcodeState::Stopped);

    // Double initialize / double start are rejected.
    EXPECT_FALSE(offcode.doInitialize(ctx).ok());
    EXPECT_FALSE(offcode.doStart().ok());
}

// --------------------------------------- executive provider selection

/** Provider stub with a fixed advertised latency. */
class StubProvider : public ChannelProvider
{
  public:
    StubProvider(std::string name, sim::SimTime latency, bool capable,
                 exec::SimExecutor &simulator)
        : name_(std::move(name)), latency_(latency), capable_(capable),
          sim_(simulator)
    {
    }

    const std::string &name() const override { return name_; }

    bool
    canServe(const ChannelConfig &, ExecutionSite &,
             ExecutionSite *) const override
    {
        return capable_;
    }

    ChannelCost
    estimateCost(const ChannelConfig &, ExecutionSite &, ExecutionSite *,
                 std::size_t) const override
    {
        return ChannelCost{latency_, 1.0};
    }

    std::unique_ptr<Channel>
    create(const ChannelConfig &config) override
    {
        ++created;
        auto provider = LocalChannelProvider(sim_);
        return provider.create(config);
    }

    int created = 0;

  private:
    std::string name_;
    sim::SimTime latency_;
    bool capable_;
    exec::SimExecutor &sim_;
};

TEST(ExecutiveSelectionTest, CheapestCapableProviderWins)
{
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    HostSite host(machine);

    ChannelExecutive executive(
        sim, [](const std::string &) -> ExecutionSite * { return nullptr; });
    auto slow = std::make_unique<StubProvider>("slow",
                                               sim::microseconds(50),
                                               true, sim);
    auto fast = std::make_unique<StubProvider>("fast",
                                               sim::microseconds(2),
                                               true, sim);
    auto incapable = std::make_unique<StubProvider>(
        "incapable", sim::nanoseconds(1), false, sim);
    StubProvider *slowPtr = slow.get();
    StubProvider *fastPtr = fast.get();
    StubProvider *incapablePtr = incapable.get();
    executive.registerProvider(std::move(slow));
    executive.registerProvider(std::move(fast));
    executive.registerProvider(std::move(incapable));

    ChannelConfig config;
    auto channel = executive.createChannel(config, host);
    ASSERT_TRUE(channel.ok());
    EXPECT_EQ(fastPtr->created, 1);
    EXPECT_EQ(slowPtr->created, 0);
    EXPECT_EQ(incapablePtr->created, 0);
}

TEST(ExecutiveSelectionTest, NoCapableProviderFails)
{
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    HostSite host(machine);

    ChannelExecutive executive(
        sim, [](const std::string &) -> ExecutionSite * { return nullptr; });
    executive.registerProvider(std::make_unique<StubProvider>(
        "incapable", sim::nanoseconds(1), false, sim));

    ChannelConfig config;
    auto channel = executive.createChannel(config, host);
    ASSERT_FALSE(channel.ok());
    EXPECT_EQ(channel.error().code, ErrorCode::Unsupported);
}

} // namespace
} // namespace hydra::core
