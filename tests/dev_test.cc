/**
 * @file
 * Unit tests for the programmable-device models: device class
 * matching, local memory, timers, NIC receive paths, smart disk
 * backends, and the GPU decode/present path.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "dev/disk.hh"
#include "dev/gpu.hh"
#include "dev/nic.hh"
#include "hw/machine.hh"
#include "net/nfs.hh"

#include "exec/sim_executor.hh"

namespace hydra::dev {
namespace {

// --------------------------------------------------- DeviceClassSpec

TEST(DeviceClassTest, EmptyRequirementMatchesAnything)
{
    DeviceClassSpec device = ProgrammableNic::nicClassSpec();
    DeviceClassSpec required; // all wildcards
    EXPECT_TRUE(device.satisfies(required));
}

TEST(DeviceClassTest, IdMustMatchWhenGiven)
{
    DeviceClassSpec device = ProgrammableNic::nicClassSpec();
    DeviceClassSpec required;
    required.id = 0x0001;
    EXPECT_TRUE(device.satisfies(required));
    required.id = 0x0002;
    EXPECT_FALSE(device.satisfies(required));
}

TEST(DeviceClassTest, OptionalFieldsFilter)
{
    DeviceClassSpec device = ProgrammableNic::nicClassSpec();
    DeviceClassSpec required;
    required.mac = "ethernet";
    EXPECT_TRUE(device.satisfies(required));
    required.vendor = "3COM";
    EXPECT_TRUE(device.satisfies(required));
    required.vendor = "Intel";
    EXPECT_FALSE(device.satisfies(required));
}

// --------------------------------------------------- Device basics

class DeviceFixture : public ::testing::Test
{
  protected:
    DeviceFixture() : machine_(sim_, hw::MachineConfig{}) {}

    exec::SimExecutor sim_;
    hw::Machine machine_;
};

TEST_F(DeviceFixture, LocalMemoryAccounting)
{
    DeviceConfig config;
    config.localMemoryBytes = 1024;
    Device dev(sim_, machine_.bus(), config, DeviceClassSpec{});

    auto first = dev.allocateLocal(600);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(dev.localMemoryFree(), 424u);

    auto second = dev.allocateLocal(600);
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, ErrorCode::OutOfMemory);

    dev.freeLocal(600);
    EXPECT_TRUE(dev.allocateLocal(600).ok());
}

TEST_F(DeviceFixture, TimerFiresAfterDelayWithBoundedNoise)
{
    DeviceConfig config;
    config.timerNoiseSigma = sim::microseconds(10);
    Device dev(sim_, machine_.bus(), config, DeviceClassSpec{});

    SampleSet lateness;
    int remaining = 200;
    std::function<void()> arm = [&]() {
        if (remaining-- == 0)
            return;
        const sim::SimTime asked = sim_.now() + sim::milliseconds(5);
        dev.timerAfter(sim::milliseconds(5), [&, asked]() {
            lateness.add(sim::toMicroseconds(sim_.now() - asked));
            arm();
        });
    };
    arm();
    sim_.runToCompletion();

    ASSERT_EQ(lateness.count(), 200u);
    EXPECT_GE(lateness.min(), 0.0);
    // Microsecond-class precision — nothing like the host's 1 ms tick.
    EXPECT_LT(lateness.mean(), 50.0);
}

TEST_F(DeviceFixture, FirmwareCyclesAccumulate)
{
    DeviceConfig config;
    config.firmwareGhz = 0.5;
    Device dev(sim_, machine_.bus(), config, DeviceClassSpec{});
    dev.runFirmware(500); // 1 us at 0.5 GHz
    EXPECT_EQ(dev.firmwareCpu().busyTime(), sim::microseconds(1));
}

TEST_F(DeviceFixture, Capabilities)
{
    Device dev(sim_, machine_.bus(), DeviceConfig{}, DeviceClassSpec{});
    EXPECT_FALSE(dev.hasCapability("magic"));
    dev.addCapability("magic");
    EXPECT_TRUE(dev.hasCapability("magic"));
}

// --------------------------------------------------- NIC

class NicFixture : public ::testing::Test
{
  protected:
    NicFixture()
        : machine_(sim_, hw::MachineConfig{}),
          net_(sim_, net::NetworkConfig{})
    {
        peer_ = net_.addNode("peer");
        nicNode_ = net_.addNode("nic");
        nic_ = std::make_unique<ProgrammableNic>(sim_, machine_.bus(),
                                                 net_, nicNode_);
    }

    net::Packet
    packetTo(net::Port port, std::size_t bytes)
    {
        net::Packet p;
        p.src = peer_;
        p.dst = nicNode_;
        p.dstPort = port;
        p.payload = Bytes(bytes, 0x11);
        return p;
    }

    exec::SimExecutor sim_;
    hw::Machine machine_;
    net::Network net_;
    net::NodeId peer_ = 0, nicNode_ = 0;
    std::unique_ptr<ProgrammableNic> nic_;
};

TEST_F(NicFixture, DevicePathAvoidsHostEntirely)
{
    int received = 0;
    nic_->bindDevicePort(80, [&](const net::Packet &) { ++received; });

    const auto hostBusy = machine_.cpu().busyTime();
    const auto busTransactions = machine_.bus().stats().transactions;

    net_.send(packetTo(80, 1024));
    sim_.runToCompletion();

    EXPECT_EQ(received, 1);
    EXPECT_EQ(nic_->packetsToDevice(), 1u);
    EXPECT_EQ(machine_.cpu().busyTime(), hostBusy);
    EXPECT_EQ(machine_.bus().stats().transactions, busTransactions);
}

TEST_F(NicFixture, HostPathCrossesBusAndInterrupts)
{
    const hw::Addr buffer = machine_.os().allocRegion(2048);
    int received = 0;
    nic_->bindHostPort(80, machine_.os(), buffer,
                       [&](const net::Packet &) { ++received; });

    const auto hostBusy = machine_.cpu().busyTime();
    net_.send(packetTo(80, 1024));
    sim_.runToCompletion();

    EXPECT_EQ(received, 1);
    EXPECT_EQ(nic_->packetsToHost(), 1u);
    EXPECT_GT(machine_.cpu().busyTime(), hostBusy); // interrupt cost
    EXPECT_EQ(machine_.bus().stats().transactions, 1u); // one DMA
}

TEST_F(NicFixture, SendFromDeviceReachesWire)
{
    int received = 0;
    net_.bind(peer_, 90, [&](const net::Packet &p) {
        ++received;
        EXPECT_EQ(p.src, nicNode_);
    });
    net::Packet p;
    p.dst = peer_;
    p.dstPort = 90;
    p.payload = Bytes(100, 1);
    nic_->sendFromDevice(std::move(p));
    sim_.runToCompletion();
    EXPECT_EQ(received, 1);
    EXPECT_EQ(nic_->packetsSent(), 1u);
}

TEST_F(NicFixture, SendFromHostCrossesBusFirst)
{
    int received = 0;
    net_.bind(peer_, 90, [&](const net::Packet &) { ++received; });
    net::Packet p;
    p.dst = peer_;
    p.dstPort = 90;
    p.payload = Bytes(1024, 1);
    nic_->sendFromHost(std::move(p));
    sim_.runToCompletion();
    EXPECT_EQ(received, 1);
    EXPECT_EQ(machine_.bus().stats().transactions, 1u);
}

TEST_F(NicFixture, UnbindStopsDelivery)
{
    int received = 0;
    nic_->bindDevicePort(80, [&](const net::Packet &) { ++received; });
    nic_->unbindPort(80);
    net_.send(packetTo(80, 64));
    sim_.runToCompletion();
    EXPECT_EQ(received, 0);
}

// --------------------------------------------------- SmartDisk

class DiskFixture : public ::testing::Test
{
  protected:
    DiskFixture() : machine_(sim_, hw::MachineConfig{}) {}

    exec::SimExecutor sim_;
    hw::Machine machine_;
};

TEST_F(DiskFixture, LocalWriteReadRoundTrip)
{
    SmartDisk disk(sim_, machine_.bus());
    const std::size_t block = disk.diskConfig().blockBytes;

    Bytes data(block * 2);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);

    bool wrote = false;
    disk.writeBlocks(5, data, [&](Status s) { wrote = s.ok(); });
    sim_.runToCompletion();
    ASSERT_TRUE(wrote);

    Bytes readBack;
    disk.readBlocks(5, 2, [&](Result<Bytes> r) {
        ASSERT_TRUE(r.ok());
        readBack = r.value();
    });
    sim_.runToCompletion();
    EXPECT_EQ(readBack, data);
    EXPECT_EQ(disk.blocksWritten(), 2u);
    EXPECT_EQ(disk.blocksRead(), 2u);
}

TEST_F(DiskFixture, UnwrittenBlocksReadAsZero)
{
    SmartDisk disk(sim_, machine_.bus());
    Bytes readBack;
    disk.readBlocks(100, 1, [&](Result<Bytes> r) {
        readBack = r.value();
    });
    sim_.runToCompletion();
    EXPECT_EQ(readBack, Bytes(disk.diskConfig().blockBytes, 0));
}

TEST_F(DiskFixture, RejectsPartialBlockWrite)
{
    SmartDisk disk(sim_, machine_.bus());
    Status result = Status::success();
    disk.writeBlocks(0, Bytes(100, 1), [&](Status s) { result = s; });
    EXPECT_FALSE(result);
    EXPECT_EQ(result.code(), ErrorCode::InvalidArgument);
}

TEST_F(DiskFixture, RejectsOutOfCapacity)
{
    DiskConfig small;
    small.capacityBlocks = 4;
    SmartDisk disk(sim_, machine_.bus(), SmartDisk::diskDefaultConfig(),
                   small);
    bool failed = false;
    disk.readBlocks(3, 2, [&](Result<Bytes> r) { failed = !r.ok(); });
    EXPECT_TRUE(failed);
}

TEST_F(DiskFixture, NfsBackedPersistsToNas)
{
    net::Network net(sim_, net::NetworkConfig{});
    const net::NodeId nasNode = net.addNode("nas");
    const net::NodeId diskNode = net.addNode("disk");
    net::NfsServer nas(net, nasNode);

    SmartDisk disk(sim_, machine_.bus(), net, diskNode, nasNode);
    const std::size_t block = disk.diskConfig().blockBytes;

    Bytes data(block, 0xcd);
    bool wrote = false;
    disk.writeBlocks(2, data, [&](Status s) { wrote = s.ok(); });
    sim_.runToCompletion();
    ASSERT_TRUE(wrote);

    // The backing NAS file holds the blocks at lba*block offsets.
    ASSERT_TRUE(nas.hasFile("smartdisk.img"));

    Bytes readBack;
    disk.readBlocks(2, 1, [&](Result<Bytes> r) { readBack = r.value(); });
    sim_.runToCompletion();
    EXPECT_EQ(readBack, data);
}

// --------------------------------------------------- Gpu

TEST_F(DiskFixture, GpuPresentAndAcceleratedDecode)
{
    Gpu gpu(sim_, machine_.bus());
    EXPECT_TRUE(gpu.hasCapability("mpeg-decode"));
    EXPECT_TRUE(gpu.hasCapability("framebuffer"));

    Bytes frame(1000, 3);
    gpu.presentFrame(frame);
    EXPECT_EQ(gpu.framesPresented(), 1u);
    EXPECT_EQ(gpu.lastFrame(), frame);

    // Accelerated decode is far cheaper than the software path.
    const auto before = gpu.firmwareCpu().busyTime();
    gpu.acceleratedDecode(100000);
    const auto accel = gpu.firmwareCpu().busyTime() - before;
    const double softwareCycles =
        gpu.gpuConfig().softwareDecodeCyclesPerByte * 100000;
    const auto software = sim::cyclesToTime(
        static_cast<std::uint64_t>(softwareCycles), 2.4);
    EXPECT_LT(accel, software);
}

} // namespace
} // namespace hydra::dev
