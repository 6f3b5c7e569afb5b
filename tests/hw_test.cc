/**
 * @file
 * Unit tests for the hardware substrate: cache model, CPU cycle
 * accounting, bus/DMA, and the OS cost model (tick quantization,
 * copies, background load).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/stats.hh"
#include "hw/bus.hh"
#include "hw/cache.hh"
#include "hw/cpu.hh"
#include "hw/machine.hh"
#include "hw/os.hh"
#include "exec/sim_executor.hh"

namespace hydra::hw {
namespace {

// ---------------------------------------------------------------- Cache

TEST(CacheTest, ColdMissesThenHits)
{
    CacheModel cache(1024, 64, 2); // 8 sets x 2 ways
    cache.access(0, 64, false);
    EXPECT_EQ(cache.totals().misses, 1u);
    cache.access(0, 64, false);
    EXPECT_EQ(cache.totals().misses, 1u);
    EXPECT_EQ(cache.totals().accesses, 2u);
}

TEST(CacheTest, MultiLineAccessCountsEachLine)
{
    CacheModel cache(4096, 64, 4);
    cache.access(0, 256, true); // 4 lines
    EXPECT_EQ(cache.totals().accesses, 4u);
    EXPECT_EQ(cache.totals().misses, 4u);
}

TEST(CacheTest, UnalignedAccessSpansLines)
{
    CacheModel cache(4096, 64, 4);
    cache.access(60, 8, false); // straddles two lines
    EXPECT_EQ(cache.totals().accesses, 2u);
}

TEST(CacheTest, LruEviction)
{
    // One set (capacity 128 = 64 * 2 ways * 1 set).
    CacheModel cache(128, 64, 2);
    // Lines mapping to set 0: addresses 0, 128, 256 (all even lines).
    cache.access(0, 1, false);   // miss, fills way 0
    cache.access(128, 1, false); // miss, fills way 1
    cache.access(0, 1, false);   // hit: 0 now MRU
    cache.access(256, 1, false); // miss: evicts 128 (LRU)
    cache.access(0, 1, false);   // still a hit
    EXPECT_EQ(cache.totals().misses, 3u);
    cache.access(128, 1, false); // miss: was evicted
    EXPECT_EQ(cache.totals().misses, 4u);
}

TEST(CacheTest, WorkingSetLargerThanCacheThrashes)
{
    CacheModel cache(256 * 1024, 64, 8);
    // Stream 1 MB twice: everything misses both times.
    for (int pass = 0; pass < 2; ++pass)
        for (Addr a = 0; a < 1024 * 1024; a += 64)
            cache.access(a, 64, false);
    EXPECT_DOUBLE_EQ(cache.totals().missRate(), 1.0);
}

TEST(CacheTest, WorkingSetSmallerThanCacheHitsOnReuse)
{
    CacheModel cache(256 * 1024, 64, 8);
    for (int pass = 0; pass < 10; ++pass)
        for (Addr a = 0; a < 64 * 1024; a += 64)
            cache.access(a, 64, false);
    // First pass misses (1024 lines), the other 9 passes hit.
    EXPECT_NEAR(cache.totals().missRate(), 0.1, 0.001);
}

TEST(CacheTest, SnoopInvalidateForcesRefetch)
{
    CacheModel cache(4096, 64, 4);
    cache.access(0, 64, false);
    cache.snoopInvalidate(0, 64);
    cache.access(0, 64, false);
    EXPECT_EQ(cache.totals().misses, 2u);
}

TEST(CacheTest, WindowStatsResetIndependently)
{
    CacheModel cache(4096, 64, 4);
    cache.access(0, 64, false);
    cache.beginWindow();
    cache.access(64, 64, false);
    EXPECT_EQ(cache.windowStats().accesses, 1u);
    EXPECT_EQ(cache.totals().accesses, 2u);
}

TEST(CacheTest, FlushDropsEverything)
{
    CacheModel cache(4096, 64, 4);
    cache.access(0, 64, false);
    cache.flush();
    cache.access(0, 64, false);
    EXPECT_EQ(cache.totals().misses, 2u);
}

TEST(CacheTest, InvalidatedSlotRefillsBeforeEvictingLru)
{
    CacheModel cache(256, 64, 4); // 1 set x 4 ways
    for (Addr a = 0; a < 256; a += 64)
        cache.access(a, 1, false); // full set; line 0 is LRU
    cache.snoopInvalidate(128, 64);
    cache.access(256, 1, false); // miss: must take the freed slot
    EXPECT_EQ(cache.totals().misses, 5u);
    for (Addr a : {0, 64, 192, 256})
        cache.access(a, 1, false); // all still resident
    EXPECT_EQ(cache.totals().misses, 5u);
    cache.access(128, 1, false); // the invalidated line refetches
    EXPECT_EQ(cache.totals().misses, 6u);
}

// The L2 geometry with the OS housekeeping hot set: 64 KiB is two
// lines in each of the 512 sets, so re-touching it replays only the
// sets something else changed.
constexpr std::size_t kL2Bytes = 256 * 1024;
constexpr std::size_t kHotBytes = 64 * 1024;

TEST(CacheTest, SnoopedHotLineCostsOneMissOnRetouch)
{
    CacheModel cache(kL2Bytes, 64, 8);
    cache.access(0, kHotBytes, false);
    cache.access(0, kHotBytes, false);
    EXPECT_EQ(cache.totals().misses, kHotBytes / 64);
    cache.snoopInvalidate(64 * 300, 64);
    cache.access(0, kHotBytes, false);
    EXPECT_EQ(cache.totals().misses, kHotBytes / 64 + 1);
    EXPECT_EQ(cache.totals().accesses, 3 * kHotBytes / 64);
}

TEST(CacheTest, FlushThenRetouchMissesEveryHotLine)
{
    CacheModel cache(kL2Bytes, 64, 8);
    cache.access(0, kHotBytes, false);
    cache.access(0, kHotBytes, false);
    cache.flush();
    cache.beginWindow();
    cache.access(0, kHotBytes, false);
    EXPECT_EQ(cache.windowStats().misses, cache.numSets() * 2);
}

TEST(CacheTest, RangeOverWaysPerSetThrashesOnRetouch)
{
    // Nine lines per set on an 8-way cache: LRU evicts each line just
    // before its next use, so every pass misses on every line.
    CacheModel cache(kL2Bytes, 64, 8);
    const std::size_t bytes = cache.numSets() * 9 * 64;
    for (int pass = 0; pass < 3; ++pass)
        cache.access(0, bytes, false);
    EXPECT_EQ(cache.totals().accesses, 3 * bytes / 64);
    EXPECT_EQ(cache.totals().misses, 3 * bytes / 64);
}

TEST(CacheTest, WindowStatsCountReplayedLines)
{
    CacheModel cache(kL2Bytes, 64, 8);
    cache.access(0, kHotBytes, false);
    cache.beginWindow();
    cache.access(0, kHotBytes, false); // replayed: no set is dirty
    EXPECT_EQ(cache.windowStats().accesses, kHotBytes / 64);
    EXPECT_EQ(cache.windowStats().misses, 0u);
}

TEST(CacheTest, RejectsBadGeometry)
{
    EXPECT_THROW(CacheModel(4096, 0, 4), std::invalid_argument);
    EXPECT_THROW(CacheModel(4096, 64, 0), std::invalid_argument);
    EXPECT_THROW(CacheModel(1000, 64, 4), std::invalid_argument);
    EXPECT_THROW(CacheModel(0, 64, 4), std::invalid_argument);
    EXPECT_THROW(CacheModel(768, 48, 4), std::invalid_argument);  // line
    EXPECT_THROW(CacheModel(768, 64, 4), std::invalid_argument);  // 3 sets
    EXPECT_THROW(CacheModel(16, 1, 4), std::invalid_argument);    // 1 B
    EXPECT_NO_THROW(CacheModel(128, 64, 2));
    EXPECT_NO_THROW(CacheModel(4096, 32, 16));
    EXPECT_NO_THROW(CacheModel(256 * 1024, 64, 8));
}

// ---------------------------------------------------------------- Cpu

TEST(CpuTest, CycleAccounting)
{
    exec::SimExecutor sim;
    Cpu cpu(sim, "cpu0", 2.0); // 2 GHz -> 0.5 ns per cycle
    const sim::SimTime done = cpu.runCycles(1000);
    EXPECT_EQ(done, 500u);
    EXPECT_EQ(cpu.busyTime(), 500u);
}

TEST(CpuTest, WorkSerializes)
{
    exec::SimExecutor sim;
    Cpu cpu(sim, "cpu0", 1.0);
    const sim::SimTime first = cpu.runCycles(100);
    const sim::SimTime second = cpu.runCycles(100);
    EXPECT_EQ(first, 100u);
    EXPECT_EQ(second, 200u); // queued behind the first
    EXPECT_EQ(cpu.busyTime(), 200u);
}

TEST(CpuTest, MeterMeasuresWindowUtilization)
{
    exec::SimExecutor sim;
    Cpu cpu(sim, "cpu0", 1.0);
    CpuMeter meter(cpu);
    meter.beginWindow(0);

    // 250 ns busy within a 1000 ns window.
    cpu.runFor(250);
    sim.schedule(1000, []() {});
    sim.runToCompletion();
    EXPECT_DOUBLE_EQ(meter.sample(1000), 0.25);

    // Next window: idle.
    EXPECT_DOUBLE_EQ(meter.sample(2000), 0.0);
}

// ---------------------------------------------------------------- Bus

TEST(BusTest, TransferLatencyAndStats)
{
    exec::SimExecutor sim;
    Bus bus(sim, "pci", 8.0, 100);
    bool done = false;
    sim::SimTime completed = 0;
    bus.transfer(8000, [&]() {
        done = true;
        completed = sim.now();
    });
    sim.runToCompletion();
    EXPECT_TRUE(done);
    // 8000 B = 64000 bits at 8 Gbps = 8000 ns, plus 100 ns setup.
    EXPECT_EQ(completed, 8100u);
    EXPECT_EQ(bus.stats().transactions, 1u);
    EXPECT_EQ(bus.stats().bytesMoved, 8000u);
}

TEST(BusTest, TransfersSerializeUnderContention)
{
    exec::SimExecutor sim;
    Bus bus(sim, "pci", 8.0, 0);
    std::vector<sim::SimTime> completions;
    for (int i = 0; i < 3; ++i)
        bus.transfer(1000, [&]() { completions.push_back(sim.now()); });
    sim.runToCompletion();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_EQ(completions[0], 1000u);
    EXPECT_EQ(completions[1], 2000u);
    EXPECT_EQ(completions[2], 3000u);
}

TEST(BusTest, DmaAddsDescriptorCost)
{
    exec::SimExecutor sim;
    Bus bus(sim, "pci", 8.0, 0);
    DmaEngine dma(sim, bus, 500);
    sim::SimTime completed = 0;
    dma.start(1000, [&]() { completed = sim.now(); });
    sim.runToCompletion();
    EXPECT_EQ(completed, 1500u); // 500 descriptor + 1000 payload
    EXPECT_EQ(dma.transfersStarted(), 1u);
}

// ---------------------------------------------------------------- Os

class OsTest : public ::testing::Test
{
  protected:
    OsTest()
        : cpu_(sim_, "host", 2.4), l2_(256 * 1024, 64, 8),
          os_(sim_, cpu_, l2_, OsConfig{}, 42)
    {
    }

    exec::SimExecutor sim_;
    Cpu cpu_;
    CacheModel l2_;
    OsKernel os_;
};

TEST_F(OsTest, RegionsDoNotOverlap)
{
    const Addr a = os_.allocRegion(1000);
    const Addr b = os_.allocRegion(1000);
    EXPECT_GE(b, a + 1000);
}

TEST_F(OsTest, SyscallChargesCpu)
{
    const sim::SimTime before = cpu_.busyTime();
    os_.syscall();
    EXPECT_GT(cpu_.busyTime(), before);
}

TEST_F(OsTest, CopyTouchesCacheAndCpu)
{
    const Addr src = os_.allocRegion(4096);
    const Addr dst = os_.allocRegion(4096);
    const auto accessesBefore = l2_.totals().accesses;
    const auto busyBefore = cpu_.busyTime();
    os_.copyBytes(src, dst, 1024);
    // 16 lines read + 16 lines written.
    EXPECT_EQ(l2_.totals().accesses - accessesBefore, 32u);
    EXPECT_GT(cpu_.busyTime(), busyBefore);
}

TEST_F(OsTest, DmaDeliveredInvalidatesLines)
{
    const Addr buf = os_.allocRegion(4096);
    os_.copyBytes(buf, buf + 2048, 1024); // warm the cache
    const auto missesBefore = l2_.totals().misses;
    os_.dmaDelivered(buf, 1024);
    l2_.access(buf, 1024, false);
    EXPECT_EQ(l2_.totals().misses - missesBefore, 16u);
}

TEST_F(OsTest, WakeAfterLandsOnJiffyAfterExpiry)
{
    OsConfig quiet;
    quiet.wakeupNoiseSigma = 0;
    quiet.preemptionProbability = 0.0;
    OsKernel os(sim_, cpu_, l2_, quiet, 1);

    // From t=0, a 5 ms sleep expires in jiffy 5, fires at jiffy 6.
    const sim::SimTime wake = os.wakeAfter(sim::milliseconds(5));
    EXPECT_EQ(wake, sim::milliseconds(6));
}

TEST_F(OsTest, WakeAfterMidJiffyStillFloorsPlusOne)
{
    OsConfig quiet;
    quiet.wakeupNoiseSigma = 0;
    quiet.preemptionProbability = 0.0;
    OsKernel os(sim_, cpu_, l2_, quiet, 1);

    sim_.schedule(sim::microseconds(300), []() {});
    sim_.runToCompletion(); // now = 0.3 ms
    // Expiry at 5.3 ms -> jiffy 5 -> fires at 6 ms.
    EXPECT_EQ(os.wakeAfter(sim::milliseconds(5)), sim::milliseconds(6));
}

TEST_F(OsTest, IoWakeQuantizesToNextTick)
{
    OsConfig quiet;
    quiet.wakeupNoiseSigma = 0;
    quiet.preemptionProbability = 0.0;
    OsKernel os(sim_, cpu_, l2_, quiet, 1);

    sim_.schedule(sim::microseconds(2700), []() {});
    sim_.runToCompletion(); // now = 2.7 ms
    EXPECT_EQ(os.ioWake(), sim::milliseconds(3));
}

TEST_F(OsTest, WakeupNoiseIsNonNegative)
{
    for (int i = 0; i < 200; ++i) {
        const sim::SimTime wake = os_.wakeAfter(sim::milliseconds(5));
        EXPECT_GE(wake, sim::milliseconds(6));
        // Bounded: tick noise + possible preemption tick + tail.
        EXPECT_LT(wake, sim::milliseconds(9));
    }
}

TEST_F(OsTest, BackgroundLoadProducesIdleBaseline)
{
    os_.startBackgroundLoad();
    CpuMeter meter(cpu_);
    // Skip the first second as warmup.
    sim_.runUntil(sim::seconds(1));
    meter.beginWindow(sim_.now());
    sim_.runUntil(sim::seconds(6));
    const double util = meter.sample(sim_.now());
    // The paper's idle baseline: 2.86 % (+/- modeled noise).
    EXPECT_NEAR(util, 0.0286, 0.004);
}

TEST(MachineTest, ComposesSubsystems)
{
    exec::SimExecutor sim;
    MachineConfig config;
    config.name = "testbox";
    Machine machine(sim, config);
    EXPECT_EQ(machine.name(), "testbox");
    EXPECT_DOUBLE_EQ(machine.cpu().clockGhz(), 2.4);
    EXPECT_EQ(machine.l2().numSets(), 256u * 1024 / (64 * 8));
    machine.os().syscall();
    EXPECT_GT(machine.cpu().busyTime(), 0u);
}

} // namespace
} // namespace hydra::hw
