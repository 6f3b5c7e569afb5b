/**
 * @file
 * Cross-module property tests: randomized ODF round-trips, channel
 * delivery-order invariants, the cache model checked against a
 * straightforward reference implementation, and serialization
 * robustness against truncation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "core/call.hh"
#include "core/executive.hh"
#include "core/offcode.hh"
#include "core/providers.hh"
#include "dev/nic.hh"
#include "hw/cache.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "odf/odf.hh"

#include "exec/sim_executor.hh"

namespace hydra {
namespace {

// ------------------------------------------------ ODF round-trip fuzz

odf::OdfDocument
randomOdf(Rng &rng)
{
    odf::OdfDocument doc;
    doc.bindname = "fuzz.Offcode" + std::to_string(rng.uniformInt(0, 999));
    doc.guid = Guid(rng.next() | 1);

    const auto interfaces = rng.uniformInt(0, 3);
    for (int i = 0; i < interfaces; ++i) {
        odf::InterfaceSpec iface;
        iface.name = "I" + std::to_string(i);
        iface.guid = Guid(rng.next() | 1);
        const auto methods = rng.uniformInt(0, 4);
        for (int m = 0; m < methods; ++m)
            iface.methods.push_back("method" + std::to_string(m));
        if (rng.chance(0.3))
            iface.includePath = "/offcodes/iface" + std::to_string(i) +
                                ".wsdl";
        doc.interfaces.push_back(std::move(iface));
    }

    const auto imports = rng.uniformInt(0, 4);
    for (int i = 0; i < imports; ++i) {
        odf::ImportSpec import;
        import.bindname = "peer.P" + std::to_string(i);
        import.guid = Guid(rng.next() | 1);
        import.constraint = static_cast<odf::ConstraintType>(
            rng.uniformInt(0, 3));
        import.priority = static_cast<int>(rng.uniformInt(-3, 7));
        if (rng.chance(0.5))
            import.file = "/offcodes/p" + std::to_string(i) + ".odf";
        doc.imports.push_back(std::move(import));
    }

    const auto targets = rng.uniformInt(0, 2);
    for (int t = 0; t < targets; ++t) {
        dev::DeviceClassSpec spec;
        spec.id = static_cast<std::uint32_t>(rng.uniformInt(1, 0xffff));
        spec.name = "Class" + std::to_string(t);
        if (rng.chance(0.5))
            spec.bus = "pci";
        if (rng.chance(0.3))
            spec.mac = "ethernet";
        if (rng.chance(0.3))
            spec.vendor = "ACME";
        doc.targets.push_back(std::move(spec));
    }
    doc.hostFallback = doc.targets.empty() ? true : rng.chance(0.7);
    doc.requiredMemoryBytes =
        static_cast<std::size_t>(rng.uniformInt(0, 1 << 20));
    const auto caps = rng.uniformInt(0, 3);
    for (int c = 0; c < caps; ++c)
        doc.requiredCapabilities.push_back("cap" + std::to_string(c));
    doc.busPrice = rng.uniform(0.0, 2.0);
    return doc;
}

class OdfRoundTripTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OdfRoundTripTest, ToXmlParsePreservesEverything)
{
    Rng rng(GetParam() * 2654435761ull);
    const odf::OdfDocument original = randomOdf(rng);
    auto reparsed = odf::OdfDocument::parse(original.toXml());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().describe();
    const odf::OdfDocument &out = reparsed.value();

    EXPECT_EQ(out.bindname, original.bindname);
    EXPECT_EQ(out.guid, original.guid);
    EXPECT_EQ(out.hostFallback, original.hostFallback);
    EXPECT_EQ(out.requiredMemoryBytes, original.requiredMemoryBytes);
    EXPECT_EQ(out.requiredCapabilities, original.requiredCapabilities);
    EXPECT_NEAR(out.busPrice, original.busPrice, 1e-6);

    ASSERT_EQ(out.interfaces.size(), original.interfaces.size());
    for (std::size_t i = 0; i < out.interfaces.size(); ++i) {
        EXPECT_EQ(out.interfaces[i].name, original.interfaces[i].name);
        EXPECT_EQ(out.interfaces[i].guid, original.interfaces[i].guid);
        EXPECT_EQ(out.interfaces[i].methods,
                  original.interfaces[i].methods);
        EXPECT_EQ(out.interfaces[i].includePath,
                  original.interfaces[i].includePath);
    }
    ASSERT_EQ(out.imports.size(), original.imports.size());
    for (std::size_t i = 0; i < out.imports.size(); ++i) {
        EXPECT_EQ(out.imports[i].bindname, original.imports[i].bindname);
        EXPECT_EQ(out.imports[i].guid, original.imports[i].guid);
        EXPECT_EQ(out.imports[i].constraint,
                  original.imports[i].constraint);
        EXPECT_EQ(out.imports[i].priority, original.imports[i].priority);
        EXPECT_EQ(out.imports[i].file, original.imports[i].file);
    }
    ASSERT_EQ(out.targets.size(), original.targets.size());
    for (std::size_t i = 0; i < out.targets.size(); ++i) {
        EXPECT_EQ(out.targets[i].id, original.targets[i].id);
        EXPECT_EQ(out.targets[i].name, original.targets[i].name);
        EXPECT_EQ(out.targets[i].bus, original.targets[i].bus);
        EXPECT_EQ(out.targets[i].mac, original.targets[i].mac);
        EXPECT_EQ(out.targets[i].vendor, original.targets[i].vendor);
    }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, OdfRoundTripTest,
                         ::testing::Range<std::uint64_t>(1, 31));

// ------------------------------------------- Call truncation robustness

TEST(CallRobustnessTest, EveryTruncationFailsCleanly)
{
    core::Call call;
    call.targetOffcode = Guid(42);
    call.interfaceGuid = Guid(43);
    call.method = "SomeMethod";
    call.arguments = Bytes(100, 9);
    call.callId = 7;
    const Payload wire = call.serialize();

    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        // Each cut in its own buffer, so an over-read leaves it.
        const Payload truncated{Bytes(wire.begin(), wire.begin() + cut)};
        auto decoded = core::Call::deserialize(truncated);
        EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
    }
    EXPECT_TRUE(core::Call::deserialize(wire).ok());
}

TEST(CallRobustnessTest, RandomGarbageNeverDecodesAsValidReturn)
{
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes garbage(static_cast<std::size_t>(rng.uniformInt(0, 64)));
        for (auto &byte : garbage)
            byte = static_cast<std::uint8_t>(rng.next());
        // Must never crash; may only succeed if the kind byte and
        // all length fields happen to be consistent.
        auto ret = core::CallReturn::deserialize(Payload(Bytes(garbage)));
        if (ret.ok()) {
            EXPECT_EQ(garbage[0],
                      static_cast<std::uint8_t>(
                          core::MessageKind::Return));
        }
    }
}

// --------------------------------------------- channel order invariant

/** Offcode recording the sequence numbers it receives. */
class OrderSink : public core::Offcode
{
  public:
    OrderSink() : Offcode("prop.OrderSink") {}

    void
    onData(const Payload &payload, core::ChannelHandle) override
    {
        ByteReader reader(payload.data(), payload.size());
        sequence.push_back(reader.readU64().valueOr(0));
    }

    std::vector<std::uint64_t> sequence;
};

TEST(ChannelOrderTest, ReliableRingPreservesOrderUnderBackpressure)
{
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    net::Network net(sim, net::NetworkConfig{});
    dev::ProgrammableNic nic(sim, machine.bus(), net, net.addNode("n"));
    core::HostSite host(machine);
    core::DeviceSite device(machine, nic);

    core::DmaRingChannelProvider provider(sim, false);
    core::ChannelConfig config;
    config.reliable = true;
    config.ringDepth = 3; // tiny ring: constant backpressure
    auto channel = provider.create(config);
    ASSERT_TRUE(channel->connectCreator(host).ok());

    OrderSink sink;
    core::OffcodeContext ctx;
    ctx.site = &device;
    sink.doInitialize(ctx);
    sink.doStart();
    ASSERT_TRUE(channel->connectOffcode(sink).ok());

    Rng rng(5);
    std::uint64_t next = 0;
    // Bursty producer: random batches with random gaps.
    for (int burst = 0; burst < 50; ++burst) {
        const auto batch = rng.uniformInt(1, 12);
        sim.schedule(sim::microseconds(
                         static_cast<std::uint64_t>(burst * 120)),
                     [&, batch]() {
                         for (int i = 0; i < batch; ++i) {
                             Bytes msg;
                             ByteWriter writer(msg);
                             writer.writeU64(next++);
                             channel->write(core::encodeData(msg));
                         }
                     });
    }
    sim.runToCompletion();

    ASSERT_EQ(channel->stats().messagesDropped, 0u);
    ASSERT_FALSE(sink.sequence.empty());
    for (std::size_t i = 1; i < sink.sequence.size(); ++i)
        ASSERT_EQ(sink.sequence[i], sink.sequence[i - 1] + 1)
            << "reordering at index " << i;
    EXPECT_EQ(sink.sequence.size(), static_cast<std::size_t>(next));
}

// ----------------------------------------- cache model vs reference

/**
 * Straightforward reference: per-set list, MRU at front, indexed with
 * divides. Ranges cover every line they touch, like the model's.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::size_t capacity, std::size_t line,
                   std::size_t ways)
        : line_(line), ways_(ways), sets_(capacity / (line * ways))
    {
        table_.resize(sets_);
    }

    /** Returns true on a miss of the line holding @p addr. */
    bool
    access(hw::Addr addr)
    {
        const std::uint64_t tag = addr / line_;
        auto &set = table_[tag % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == tag) {
                set.erase(it);
                set.push_front(tag);
                return false; // hit
            }
        }
        set.push_front(tag);
        if (set.size() > ways_)
            set.pop_back();
        return true; // miss
    }

    /** Touch [addr, addr+size); returns the number of misses. */
    std::uint64_t
    access(hw::Addr addr, std::size_t size)
    {
        std::uint64_t misses = 0;
        for (std::uint64_t tag = addr / line_;
             tag <= (addr + size - 1) / line_; ++tag)
            misses += access(tag * line_);
        return misses;
    }

    void
    snoopInvalidate(hw::Addr addr, std::size_t size)
    {
        for (std::uint64_t tag = addr / line_;
             tag <= (addr + size - 1) / line_; ++tag)
            table_[tag % sets_].remove(tag);
    }

  private:
    std::size_t line_, ways_, sets_;
    std::vector<std::list<std::uint64_t>> table_;
};

class CachePropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CachePropertyTest, MatchesReferenceOnRandomTraces)
{
    Rng rng(GetParam() * 31337);
    hw::CacheModel cache(8192, 64, 4);
    ReferenceCache reference(8192, 64, 4);

    std::uint64_t expectedMisses = 0;
    const int accesses = 5000;
    for (int i = 0; i < accesses; ++i) {
        // Mix of hot (reused) and cold (streaming) addresses, line
        // aligned so both models see single-line accesses.
        const hw::Addr addr =
            rng.chance(0.6)
                ? static_cast<hw::Addr>(rng.uniformInt(0, 63)) * 64
                : static_cast<hw::Addr>(rng.uniformInt(0, 1 << 16)) * 64;
        if (reference.access(addr))
            ++expectedMisses;
        cache.access(addr, 1, rng.chance(0.5));
    }
    EXPECT_EQ(cache.totals().accesses,
              static_cast<std::uint64_t>(accesses));
    EXPECT_EQ(cache.totals().misses, expectedMisses);
}

INSTANTIATE_TEST_SUITE_P(Traces, CachePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 16));

struct CacheGeometry
{
    const char *name;
    std::size_t capacity, line, ways;
};

void
PrintTo(const CacheGeometry &geo, std::ostream *os)
{
    *os << geo.name;
}

class CacheDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<CacheGeometry, std::uint64_t>>
{
  protected:
    CacheDifferentialTest()
        : geo_(std::get<0>(GetParam())),
          cache_(geo_.capacity, geo_.line, geo_.ways),
          reference_(geo_.capacity, geo_.line, geo_.ways)
    {
    }

    /**
     * Applies one operation to the model and the reference, picked by
     * @p op in [0, 1): 80% access, 16% snoop, 4% new
     * measurement window. The model's miss delta must match the
     * reference's after every operation, not only in the final total.
     */
    void
    apply(double op, hw::Addr addr, std::size_t size, Rng &rng)
    {
        const hw::CacheStats before = cache_.totals();
        if (op < 0.80) {
            const std::uint64_t misses = reference_.access(addr, size);
            cache_.access(addr, size, rng.chance(0.5));
            const std::uint64_t lines =
                (addr + size - 1) / geo_.line - addr / geo_.line + 1;
            ASSERT_EQ(cache_.totals().accesses - before.accesses, lines);
            ASSERT_EQ(cache_.totals().misses - before.misses, misses)
                << "access " << addr << "+" << size;
            window_.accesses += lines;
            window_.misses += misses;
        } else if (op < 0.96) {
            reference_.snoopInvalidate(addr, size);
            cache_.snoopInvalidate(addr, size);
        } else {
            cache_.beginWindow();
            window_ = {};
        }
        ASSERT_EQ(cache_.windowStats().accesses, window_.accesses);
        ASSERT_EQ(cache_.windowStats().misses, window_.misses);
    }

    CacheGeometry geo_;
    hw::CacheModel cache_;
    ReferenceCache reference_;
    hw::CacheStats window_;
};

/** Random mixes of unaligned multi-line accesses and the other ops. */
TEST_P(CacheDifferentialTest, MixedOpsMatchReferenceEveryStep)
{
    const auto &[geo, seed] = GetParam();
    Rng rng(seed * 7919 + geo.capacity + geo.ways);

    // A hot region the cache can mostly hold plus a cold region four
    // times its size; sizes up to four lines, at any byte offset.
    const auto hot = static_cast<std::int64_t>(geo.capacity / 2);
    const auto cold = static_cast<std::int64_t>(geo.capacity * 4);
    const auto maxSize = static_cast<std::int64_t>(geo.line * 4);
    for (int i = 0; i < 20000; ++i) {
        const auto addr = static_cast<hw::Addr>(
            rng.chance(0.6) ? rng.uniformInt(0, hot)
                            : rng.uniformInt(0, cold));
        const auto size =
            static_cast<std::size_t>(rng.uniformInt(1, maxSize));
        ASSERT_NO_FATAL_FAILURE(apply(rng.uniform(), addr, size, rng))
            << "op " << i;
    }
}

/**
 * The same mix with 45% whole-range accesses around one hot range of
 * one to `ways` lines per set, which the model remembers and replays
 * on the sets changed since: the exact range, ranges a line shorter or
 * longer at either end (these may be remembered in its place), the
 * same lines from an unaligned start, and a range of ways + 1 lines
 * per set, which must never take the shortcut.
 */
TEST_P(CacheDifferentialTest, RangeReplaysMatchReferenceEveryStep)
{
    const auto &[geo, seed] = GetParam();
    Rng rng(seed * 104729 + geo.capacity + geo.ways);

    const auto sets =
        static_cast<std::int64_t>(geo.capacity / (geo.line * geo.ways));
    const auto line = static_cast<std::int64_t>(geo.line);
    const std::int64_t hotLines =
        sets * rng.uniformInt(1, static_cast<std::int64_t>(geo.ways));
    // A first line >= 1: the range's first set varies by seed, and the
    // variant one line longer at the front stays at address >= 0.
    const std::int64_t hotFirst = rng.uniformInt(1, sets);
    const std::int64_t hotEnd = (hotFirst + hotLines) * line;
    const auto cold = static_cast<std::int64_t>(geo.capacity * 4);
    for (int i = 0; i < 10000; ++i) {
        if (!rng.chance(0.45)) {
            // Other ops, half of them on the hot range's lines.
            const auto addr = static_cast<hw::Addr>(
                rng.chance(0.6) ? rng.uniformInt(hotFirst * line, hotEnd)
                                : rng.uniformInt(0, cold));
            const auto size =
                static_cast<std::size_t>(rng.uniformInt(1, line * 4));
            ASSERT_NO_FATAL_FAILURE(apply(rng.uniform(), addr, size, rng))
                << "op " << i;
            continue;
        }
        std::int64_t first = hotFirst;
        std::int64_t count = hotLines;
        switch (rng.chance(0.4) ? 0 : rng.uniformInt(1, 6)) {
          case 1: ++first; --count; break;
          case 2: --count; break;
          case 3: --first; ++count; break;
          case 4: ++count; break;
          case 6:
            count = sets * static_cast<std::int64_t>(geo.ways + 1);
            break;
          default: break;
        }
        if (count == 0) { // one-line range made shorter
            first = hotFirst;
            count = hotLines;
        }
        std::int64_t begin = first * line;
        std::int64_t end = (first + count) * line;
        if (rng.chance(1.0 / 6)) {
            // Same lines, unaligned at both ends.
            begin += rng.uniformInt(0, line - 1);
            end -= rng.uniformInt(0, std::min(line, end - begin) - 1);
        }
        ASSERT_NO_FATAL_FAILURE(apply(0.0, static_cast<hw::Addr>(begin),
                                      static_cast<std::size_t>(end - begin),
                                      rng))
            << "op " << i;
    }
}

/**
 * The OS housekeeping tick's shape: replays of one hot range between
 * short accesses beside it, which the model stores behind each clean
 * set's range lines (deferred) until the next replay. The short
 * accesses come from a pool of up to 2 x ways lines per set in a
 * window of sets, so they hit lines deferred since the last replay,
 * hit lines stored below those, and miss both where the set has a
 * free slot behind its deferred lines and where it has none. Mixed in:
 * touches of range lines, snoops (half of them into the pool's sets),
 * accesses of numSets() lines or more from the pool, and now and then
 * a new hot range.
 */
TEST_P(CacheDifferentialTest, HousekeepingTicksMatchReferenceEveryStep)
{
    const auto &[geo, seed] = GetParam();
    Rng rng(seed * 15485863 + geo.capacity + geo.ways);

    const auto sets =
        static_cast<std::int64_t>(geo.capacity / (geo.line * geo.ways));
    const auto ways = static_cast<std::int64_t>(geo.ways);
    const auto line = static_cast<std::int64_t>(geo.line);
    const std::int64_t window = std::min<std::int64_t>(sets, 4);
    // Short accesses span fewer lines than there are sets (one line
    // when there is one set, which makes every access a wide one).
    const std::int64_t maxShort = std::max<std::int64_t>(sets - 1, 1);
    const std::int64_t maxPoolRun = std::min<std::int64_t>(maxShort, 3);
    // Past every range below: ranges start before line 2 x sets and
    // span at most sets x ways lines.
    const std::int64_t poolFirst = sets * (ways + 2);
    std::int64_t hotFirst = 0;
    std::int64_t hotLines = 0;
    auto newRange = [&] {
        hotFirst = rng.uniformInt(0, 2 * sets - 1);
        hotLines = rng.uniformInt(sets, sets * ways);
    };
    auto lines = [&](std::int64_t first, std::int64_t count) {
        return apply(0.0, static_cast<hw::Addr>(first * line),
                     static_cast<std::size_t>(count * line), rng);
    };
    newRange();
    ASSERT_NO_FATAL_FAILURE(lines(hotFirst, hotLines));
    for (int i = 0; i < 6000; ++i) {
        const double op = rng.uniform();
        if (op < 0.25) {
            ASSERT_NO_FATAL_FAILURE(lines(hotFirst, hotLines))
                << "replay, op " << i;
        } else if (op < 0.70) {
            // Fewer than numSets() lines from the pool.
            const std::int64_t first =
                poolFirst + rng.uniformInt(0, 2 * ways - 1) * sets +
                rng.uniformInt(0, window - 1);
            ASSERT_NO_FATAL_FAILURE(
                lines(first, rng.uniformInt(1, maxPoolRun)))
                << "beside the range, op " << i;
        } else if (op < 0.80) {
            const std::int64_t count =
                rng.uniformInt(1, std::min(maxShort, hotLines));
            ASSERT_NO_FATAL_FAILURE(lines(
                hotFirst + rng.uniformInt(0, hotLines - count), count))
                << "range lines, op " << i;
        } else if (op < 0.90) {
            const std::int64_t first =
                rng.chance(0.5)
                    ? poolFirst + rng.uniformInt(0, 2 * ways - 1) * sets +
                          rng.uniformInt(0, window - 1)
                    : hotFirst + rng.uniformInt(0, hotLines - 1);
            ASSERT_NO_FATAL_FAILURE(
                apply(0.9, static_cast<hw::Addr>(first * line),
                      static_cast<std::size_t>(
                          rng.uniformInt(1, 2 * line)),
                      rng))
                << "snoop, op " << i;
        } else if (op < 0.96) {
            // numSets() lines or more from the pool; up to sets x ways
            // of them become the remembered range.
            ASSERT_NO_FATAL_FAILURE(
                lines(poolFirst + rng.uniformInt(0, sets - 1),
                      rng.uniformInt(sets, sets * (ways + 1))))
                << "wide access, op " << i;
        } else if (op < 0.98) {
            newRange();
            ASSERT_NO_FATAL_FAILURE(lines(hotFirst, hotLines))
                << "new range, op " << i;
        } else {
            ASSERT_NO_FATAL_FAILURE(apply(0.99, 0, 1, rng))
                << "window, op " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferentialTest,
    ::testing::Combine(
        ::testing::Values(CacheGeometry{"OneSetTwoWays", 128, 64, 2},
                          CacheGeometry{"DirectMapped", 4096, 64, 1},
                          CacheGeometry{"Small8K", 8192, 64, 4},
                          CacheGeometry{"L2256K", 256 * 1024, 64, 8},
                          CacheGeometry{"Line32Ways16", 4096, 32, 16}),
        ::testing::Range<std::uint64_t>(1, 6)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace hydra
