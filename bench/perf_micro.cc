/**
 * @file
 * Wall-clock microbenchmarks (google-benchmark) of the framework's
 * hot primitives: event dispatch, Call marshaling, RLE codec, XML
 * parsing, cache-model accesses, and the branch-and-bound solver.
 * These guard the simulator's own performance — a 10-minute
 * evaluation run replays ~10^7 events.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "core/call.hh"
#include "core/executive.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "core/offcode.hh"
#include "core/providers.hh"
#include "dev/nic.hh"
#include "hw/cache.hh"
#include "hw/machine.hh"
#include "ilp/layout.hh"
#include "net/network.hh"
#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "odf/odf.hh"
#include "exec/sim_executor.hh"
#include "exec/threaded_executor.hh"
#include "tivo/mpeg.hh"

namespace {

using namespace hydra;

/** Timers pending in BM_SimulatorDispatch: the steady heap depth
 * measured on perfbench's fleet_openloop workload. */
constexpr std::size_t kDispatchDepth = 80;

/**
 * A closure of @p kBytes that schedules a copy of itself one depth
 * later when it fires: every dispatch is one pop plus one push, and
 * the heap stays exactly kDispatchDepth deep. 88 bytes is the size of
 * a Packet-carrying closure (`this` + an 80-byte net::Packet).
 */
template <std::size_t kBytes>
struct DispatchHop
{
    exec::SimExecutor *sim;
    std::array<std::uint8_t, kBytes - sizeof(exec::SimExecutor *)> cargo{};

    void operator()() const { sim->schedule(kDispatchDepth, *this); }
};

template <>
struct DispatchHop<sizeof(exec::SimExecutor *)>
{
    exec::SimExecutor *sim;

    void operator()() const { sim->schedule(kDispatchDepth, *this); }
};

template <std::size_t kBytes>
void
runSimulatorDispatch(benchmark::State &state)
{
    static_assert(sizeof(DispatchHop<kBytes>) == kBytes);
    exec::SimExecutor sim;
    for (std::size_t i = 0; i < kDispatchDepth; ++i)
        sim.schedule(static_cast<sim::SimTime>(i), DispatchHop<kBytes>{&sim});
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}

void
BM_SimulatorDispatch(benchmark::State &state)
{
    if (state.range(0) == 8)
        runSimulatorDispatch<8>(state);
    else
        runSimulatorDispatch<88>(state);
}
BENCHMARK(BM_SimulatorDispatch)->ArgName("capture")->Arg(8)->Arg(88);

void
BM_CallRoundTrip(benchmark::State &state)
{
    core::Call call;
    call.targetOffcode = Guid(1);
    call.interfaceGuid = Guid(2);
    call.method = "Decode";
    call.arguments.assign(static_cast<std::size_t>(state.range(0)), 7);
    for (auto _ : state) {
        const Payload wire = call.serialize();
        auto decoded = core::Call::deserialize(wire);
        benchmark::DoNotOptimize(decoded);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CallRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_MpegEncodeDecode(benchmark::State &state)
{
    tivo::MpegConfig config;
    tivo::SyntheticVideo source(config, 42);
    std::uint32_t seq = 0;
    tivo::MpegEncoder encoder(config);
    tivo::MpegDecoder decoder;
    for (auto _ : state) {
        auto encoded = encoder.encode(source.frame(seq++));
        auto raw = decoder.decode(encoded.value());
        benchmark::DoNotOptimize(raw);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpegEncodeDecode);

/** The default 160x120 movie, 900 frames (100 GOPs), encoded once. */
const std::vector<tivo::EncodedFrame> &
benchMovieFrames()
{
    static const std::vector<tivo::EncodedFrame> frames = [] {
        tivo::MpegConfig config;
        tivo::SyntheticVideo source(config, 42);
        tivo::MpegEncoder encoder(config);
        std::vector<tivo::EncodedFrame> out;
        for (std::uint32_t i = 0; i < 900; ++i)
            out.push_back(encoder.encode(source.frame(i)).value());
        return out;
    }();
    return frames;
}

/** Decode only: the Decoder Offcode's codec cost per frame. */
void
BM_MpegDecode(benchmark::State &state)
{
    const auto &frames = benchMovieFrames();
    tivo::MpegDecoder decoder;
    std::size_t next = 0;
    for (auto _ : state) {
        auto raw = decoder.decode(frames[next]);
        benchmark::DoNotOptimize(raw);
        next = (next + 1) % frames.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpegDecode);

/**
 * The default 192-frame movie encoded end to end: synthesis, delta,
 * run-length coding and framing. Every TiVo Testbed build runs this
 * once to seed the NAS, so it is most of tivo_offloaded's setup time.
 */
void
BM_EncodeMovie(benchmark::State &state)
{
    const tivo::MpegConfig config;
    for (auto _ : state) {
        Bytes movie = tivo::encodeMovie(config, 192, 42);
        benchmark::DoNotOptimize(movie);
    }
    state.SetItemsProcessed(state.iterations() * 192);
}
BENCHMARK(BM_EncodeMovie);

/** Stream assembly: one 1 KiB feed (the paper's chunk) plus nextFrame. */
void
BM_StreamAssemble(benchmark::State &state)
{
    constexpr std::size_t kChunk = 1024;
    static const Bytes movie = [] {
        Bytes out;
        for (const tivo::EncodedFrame &frame : benchMovieFrames()) {
            const Bytes wire = tivo::serializeFrame(frame);
            out.insert(out.end(), wire.begin(), wire.end());
        }
        return out;
    }();
    tivo::StreamAssembler assembler;
    std::size_t pos = 0;
    std::int64_t bytes = 0;
    for (auto _ : state) {
        const std::size_t n = std::min(kChunk, movie.size() - pos);
        assembler.feed(movie.data() + pos, n);
        pos = pos + n == movie.size() ? 0 : pos + n;
        bytes += static_cast<std::int64_t>(n);
        while (true) {
            auto frame = assembler.nextFrame();
            if (!frame)
                break;
            benchmark::DoNotOptimize(frame);
        }
    }
    state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_StreamAssemble);

void
BM_XmlParseOdf(benchmark::State &state)
{
    const std::string xml = R"(<offcode>
      <package><bindname>bench.Offcode</bindname>
        <interface name="I"><method name="m1"/><method name="m2"/>
        </interface></package>
      <sw-env><import><bindname>peer</bindname>
        <reference type="Pull" pri="1"/></import>
        <requires memory="65536"><capability name="dma"/></requires>
      </sw-env>
      <targets><device-class id="0x0001"><name>NIC</name></device-class>
        <host-fallback/></targets>
      <price bus="0.2"/></offcode>)";
    for (auto _ : state) {
        auto doc = odf::OdfDocument::parse(xml);
        benchmark::DoNotOptimize(doc);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XmlParseOdf);

void
BM_CacheAccess(benchmark::State &state)
{
    hw::CacheModel cache(256 * 1024, 64, 8);
    hw::Addr addr = 0;
    for (auto _ : state) {
        cache.access(addr, 64, false);
        addr = (addr + 4096) % (8 * 1024 * 1024);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/**
 * One OS housekeeping tick's shape on the 256K/64/8 L2: a 64 KiB hot
 * set (hits once warm) plus a 1344 B stream that always misses. With
 * @p copyBytes > 0, a kernel copy of that size (read source, write
 * destination) runs between ticks. Items are cache lines.
 */
void
runHousekeepingTicks(benchmark::State &state, std::size_t copyBytes)
{
    hw::CacheModel cache(256 * 1024, 64, 8);
    const hw::Addr hot = 0;
    const hw::Addr stream = 1 << 20;
    const hw::Addr copySrc = 8 << 20;
    const hw::Addr copyDst = copySrc + copyBytes;
    const std::size_t hotBytes = 64 * 1024;
    const std::size_t streamPerTick = 1344;
    const std::size_t streamBytes = 4 * 1024 * 1024;
    std::size_t offset = 0;
    for (auto _ : state) {
        cache.access(hot, hotBytes, false);
        cache.access(stream + offset, streamPerTick, false);
        offset += streamPerTick;
        if (offset + streamPerTick > streamBytes)
            offset = 0;
        if (copyBytes > 0) {
            cache.access(copySrc, copyBytes, false);
            cache.access(copyDst, copyBytes, true);
        }
    }
    benchmark::DoNotOptimize(cache.totals());
    state.SetItemsProcessed(static_cast<std::int64_t>(
        cache.totals().accesses));
}

/**
 * The hit path: the hot set is re-touched unchanged but for the 21
 * sets the stream passed through, so the model replays only those.
 * BM_CacheAccess's 4 KiB stride lands in 8 sets and only misses.
 */
void
BM_CacheHousekeepingTick(benchmark::State &state)
{
    runHousekeepingTicks(state, 0);
}
BENCHMARK(BM_CacheHousekeepingTick);

/**
 * The worst case for replay: a 16 KiB copy between ticks puts its
 * source in sets 0-255 and its destination in 256-511, so every set
 * is dirty and each re-touch walks the whole hot set.
 */
void
BM_CacheHousekeepingTickDirty(benchmark::State &state)
{
    runHousekeepingTicks(state, 16 * 1024);
}
BENCHMARK(BM_CacheHousekeepingTickDirty);

void
BM_IlpTivoLayout(benchmark::State &state)
{
    ilp::LayoutSpec spec;
    spec.numOffcodes = 6;
    spec.numDevices = 4;
    spec.compatible = {
        {true, false, false, false}, {true, true, false, false},
        {true, false, true, false},  {true, true, false, true},
        {true, false, false, true},  {true, false, true, false},
    };
    spec.edges = {{1, 3, ilp::LayoutConstraint::Gang},
                  {1, 2, ilp::LayoutConstraint::Gang},
                  {3, 4, ilp::LayoutConstraint::Pull},
                  {2, 5, ilp::LayoutConstraint::Pull}};
    for (auto _ : state) {
        auto solution = ilp::solveLayout(spec);
        benchmark::DoNotOptimize(solution);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IlpTivoLayout);

// ------------------------------------------------- telemetry hot path

/**
 * Cost of one Histogram::record() — the price every instrumented
 * delivery/dispatch site pays. The value stream cycles through a
 * precomputed table spanning all octaves so the bucket-index math
 * (bit_width + shift) sees realistic inputs, while the per-iteration
 * overhead beyond record() stays at one load and a mask. Gated by
 * scripts/check.sh --bench-smoke at HYDRA_HIST_RECORD_NS_MAX.
 */
void
BM_HistogramRecord(benchmark::State &state)
{
    obs::Histogram h;
    std::uint64_t values[1024];
    std::uint64_t seed = 0x2545f4914f6cdd1dull;
    for (std::uint64_t &v : values) {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        v = seed >> (seed % 48); // spread across the octave range
    }
    std::size_t i = 0;
    for (auto _ : state) {
        h.record(values[i++ & 1023]);
    }
    benchmark::DoNotOptimize(h.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// --------------------------------------------------- channel data path

/** Discards deliveries; the channel machinery is what's measured. */
class SinkOffcode : public core::Offcode
{
  public:
    SinkOffcode() : Offcode("bench.Sink") {}

    void
    onData(const Payload &payload, core::ChannelHandle) override
    {
        received += 1;
        receivedBytes += payload.size();
    }

    std::uint64_t received = 0;
    std::uint64_t receivedBytes = 0;
};

/** Minimal simulated machine + NIC + executive for channel benches. */
struct ChannelBenchWorld
{
    ChannelBenchWorld()
        : machine(sim, hw::MachineConfig{}),
          net(sim, net::NetworkConfig{}),
          hostSite(machine)
    {
        nicNode = net.addNode("nic");
        nic = std::make_unique<dev::ProgrammableNic>(sim, machine.bus(),
                                                     net, nicNode);
        deviceSite = std::make_unique<core::DeviceSite>(machine, *nic);
        executive = std::make_unique<core::ChannelExecutive>(
            sim, [this](const std::string &name) -> core::ExecutionSite * {
                if (name == hostSite.name())
                    return &hostSite;
                if (name == deviceSite->name())
                    return deviceSite.get();
                return nullptr;
            });
        executive->registerProvider(
            std::make_unique<core::LocalChannelProvider>(sim));
        executive->registerProvider(
            std::make_unique<core::DmaRingChannelProvider>(sim, false));
    }

    void
    place(core::Offcode &offcode, core::ExecutionSite &site)
    {
        core::OffcodeContext ctx;
        ctx.site = &site;
        offcode.doInitialize(ctx);
        offcode.doStart();
    }

    exec::SimExecutor sim;
    hw::Machine machine;
    net::Network net;
    net::NodeId nicNode = 0;
    std::unique_ptr<dev::ProgrammableNic> nic;
    core::HostSite hostSite;
    std::unique_ptr<core::DeviceSite> deviceSite;
    std::unique_ptr<core::ChannelExecutive> executive;
};

void
BM_ChannelThroughput(benchmark::State &state)
{
    const auto messageBytes = static_cast<std::size_t>(state.range(0));
    const bool dma = state.range(1) != 0;
    const bool copying = state.range(2) != 0;
    const bool hist = state.range(3) != 0;

    ChannelBenchWorld world;
    SinkOffcode sink;
    world.place(sink, dma ? static_cast<core::ExecutionSite &>(
                                *world.deviceSite)
                          : world.hostSite);

    core::ChannelConfig config;
    // hist:1 names the channel so every delivery records into the
    // per-channel latency histogram; hist:0 leaves it anonymous. The
    // pair isolates the telemetry overhead within one run, immune to
    // machine drift between sessions (gated by bench_gate.py).
    if (hist)
        config.name = "bench.sink";
    config.targetDevice =
        dma ? world.deviceSite->name() : world.hostSite.name();
    config.buffering = copying ? core::ChannelConfig::Buffering::Copying
                               : core::ChannelConfig::Buffering::ZeroCopy;
    config.reliable = true;
    auto channel = world.executive->createChannel(config, world.hostSite);
    channel.value()->connectOffcode(sink);

    const auto message = core::encodeData(Bytes(messageBytes, 0x5a));
    constexpr int kBatch = 64;
    for (auto _ : state) {
        for (int i = 0; i < kBatch; ++i)
            channel.value()->write(message);
        world.sim.runToCompletion();
    }
    benchmark::DoNotOptimize(sink.received);
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetBytesProcessed(state.iterations() * kBatch *
                            static_cast<std::int64_t>(messageBytes));
}
BENCHMARK(BM_ChannelThroughput)
    ->ArgNames({"bytes", "dma", "copying", "hist"})
    ->Args({64, 0, 0, 0})
    ->Args({64, 0, 0, 1})
    ->Args({64, 0, 1, 0})
    ->Args({64, 0, 1, 1})
    ->Args({16384, 0, 0, 0})
    ->Args({16384, 0, 0, 1})
    ->Args({16384, 0, 1, 0})
    ->Args({16384, 0, 1, 1})
    ->Args({64, 1, 0, 0})
    ->Args({64, 1, 0, 1})
    ->Args({64, 1, 1, 0})
    ->Args({64, 1, 1, 1})
    ->Args({16384, 1, 0, 0})
    ->Args({16384, 1, 0, 1})
    ->Args({16384, 1, 1, 0})
    ->Args({16384, 1, 1, 1});

void
BM_MulticastFanout(benchmark::State &state)
{
    const auto messageBytes = static_cast<std::size_t>(state.range(0));
    constexpr int kEndpoints = 8;

    ChannelBenchWorld world;
    core::ChannelConfig config;
    config.type = core::ChannelConfig::Type::Multicast;
    config.targetDevice = world.deviceSite->name();
    config.reliable = true;
    auto channel = world.executive->createChannel(config, world.hostSite);

    std::vector<std::unique_ptr<SinkOffcode>> sinks;
    for (int i = 0; i < kEndpoints; ++i) {
        sinks.push_back(std::make_unique<SinkOffcode>());
        world.place(*sinks.back(), *world.deviceSite);
        channel.value()->connectOffcode(*sinks.back());
    }

    const auto message = core::encodeData(Bytes(messageBytes, 0x5a));
    constexpr int kBatch = 16;
    for (auto _ : state) {
        for (int i = 0; i < kBatch; ++i)
            channel.value()->write(message);
        world.sim.runToCompletion();
    }
    benchmark::DoNotOptimize(sinks.front()->received);
    state.SetItemsProcessed(state.iterations() * kBatch * kEndpoints);
    state.SetBytesProcessed(state.iterations() * kBatch * kEndpoints *
                            static_cast<std::int64_t>(messageBytes));
}
BENCHMARK(BM_MulticastFanout)->Arg(64)->Arg(16384);

// ------------------------------------------------ executor pipelines

/**
 * TiVo-shaped stage pipeline over the executor's post() primitive:
 * each message is a refcounted Payload handed site-to-site
 * (NIC -> decode -> display in miniature), with a checksum per hop
 * standing in for stage work. Args: (sites, threaded). Under the sim
 * engine every hop is a zero-delay event through the global heap;
 * under the threaded engine each hop is an SPSC ring handoff to that
 * site's worker thread. The comparison (same site count, threaded=0
 * vs 1) isolates the per-hop dispatch cost of the two engines.
 */
struct BenchPipeline
{
    BenchPipeline(exec::Executor &engine_, int stages) : engine(engine_)
    {
        for (int i = 0; i < stages; ++i)
            sites.push_back(engine.addSite("stage-" + std::to_string(i)));
    }

    /** Publish each stage through the profiler's ActivityScope, as
     * the channel dispatch path does (BM_ProfilerOverhead). */
    void
    publishActivity()
    {
        obs::Profiler &profiler = obs::Profiler::instance();
        label = profiler.intern("bench.pipeline", "data");
        for (std::size_t i = 0; i < sites.size(); ++i)
            slots.push_back(
                profiler.slotFor("stage-" + std::to_string(i)));
    }

    void
    stage(std::size_t index, Payload message)
    {
        obs::ActivityScope activity(
            slots.empty() ? nullptr : slots[index], label);
        // Constant-time stage work: touch the buffer ends so the
        // handoff is real (the bytes must be resident and shared),
        // without per-byte work masking the dispatch cost under test.
        benchmark::DoNotOptimize(message.data()[0] +
                                 message.data()[message.size() - 1]);
        if (index + 1 < sites.size()) {
            engine.post(sites[index + 1],
                        [this, index, m = std::move(message)]() mutable {
                            stage(index + 1, std::move(m));
                        });
        } else {
            processed.fetch_add(1, std::memory_order_relaxed);
        }
    }

    void
    feed(Payload message)
    {
        engine.post(sites[0],
                    [this, m = std::move(message)]() mutable {
                        stage(0, std::move(m));
                    });
    }

    exec::Executor &engine;
    std::vector<exec::SiteId> sites;
    std::atomic<std::uint64_t> processed{0};
    std::vector<obs::SiteActivitySlot *> slots;
    const obs::ActivityLabel *label = nullptr;
};

void
BM_PipelineParallel(benchmark::State &state)
{
    const int stages = static_cast<int>(state.range(0));
    const bool threaded = state.range(1) != 0;

    std::unique_ptr<exec::Executor> engine;
    if (threaded) {
        exec::ThreadedExecutor::Config config;
        // A whole batch fits in each ring, so on few-core hosts the
        // producer enqueues a burst and each worker drains it in one
        // scheduling quantum instead of ping-ponging per message.
        config.ringCapacity = 4096;
        engine = std::make_unique<exec::ThreadedExecutor>(config);
    } else {
        engine = std::make_unique<exec::SimExecutor>();
    }
    BenchPipeline pipeline(*engine, stages);

    // Small control-plane sized message: keeps per-hop payload work
    // (the crc touch) minor so the measurement isolates dispatch cost.
    const Payload message{Bytes(64, 0x5a)};
    constexpr int kMessages = 1024;
    for (auto _ : state) {
        for (int i = 0; i < kMessages; ++i)
            pipeline.feed(message);
        engine->drain();
    }
    if (pipeline.processed.load() !=
        state.iterations() * static_cast<std::uint64_t>(kMessages))
        state.SkipWithError("pipeline lost messages");
    state.SetItemsProcessed(state.iterations() * kMessages);
    state.counters["hops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kMessages * stages,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineParallel)
    ->ArgNames({"sites", "threaded"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->UseRealTime();

/**
 * Batched handoff end to end: messages travel the same site-to-site
 * pipeline, but the handoff unit is a batch — the feeder posts one
 * closure per batch of payloads, and each hop forwards its whole
 * batch in one closure. batch:1 degenerates to the per-message
 * pipeline (the unbatched baseline bench_gate.py pairs against);
 * items/s at sites=4 threaded=1 batch=64 versus BM_PipelineParallel
 * sites=4 threaded=1 shows what amortizing the per-post cost buys.
 */
struct BatchPipeline
{
    BatchPipeline(exec::Executor &engine_, int stages) : engine(engine_)
    {
        for (int i = 0; i < stages; ++i)
            sites.push_back(engine.addSite("stage-" + std::to_string(i)));
    }

    void
    stage(std::size_t index, std::vector<Payload> batch)
    {
        for (const Payload &message : batch)
            benchmark::DoNotOptimize(
                message.data()[0] + message.data()[message.size() - 1]);
        if (index + 1 < sites.size()) {
            engine.post(sites[index + 1],
                        [this, index, b = std::move(batch)]() mutable {
                            stage(index + 1, std::move(b));
                        });
        } else {
            processed.fetch_add(batch.size(), std::memory_order_relaxed);
        }
    }

    void
    feedAll(const Payload &message, int total, int batchSize)
    {
        for (int fed = 0; fed < total; fed += batchSize) {
            const int count = std::min(batchSize, total - fed);
            std::vector<Payload> batch(
                static_cast<std::size_t>(count), message);
            engine.post(sites[0], [this, b = std::move(batch)]() mutable {
                stage(0, std::move(b));
            });
        }
    }

    exec::Executor &engine;
    std::vector<exec::SiteId> sites;
    std::atomic<std::uint64_t> processed{0};
};

void
BM_BatchedPipeline(benchmark::State &state)
{
    const int stages = static_cast<int>(state.range(0));
    const bool threaded = state.range(1) != 0;
    const int batchSize = static_cast<int>(state.range(2));

    std::unique_ptr<exec::Executor> engine;
    if (threaded) {
        exec::ThreadedExecutor::Config config;
        config.ringCapacity = 4096;
        engine = std::make_unique<exec::ThreadedExecutor>(config);
    } else {
        engine = std::make_unique<exec::SimExecutor>();
    }
    BatchPipeline pipeline(*engine, stages);

    const Payload message{Bytes(64, 0x5a)};
    constexpr int kMessages = 1024;
    for (auto _ : state) {
        pipeline.feedAll(message, kMessages, batchSize);
        engine->drain();
    }
    if (pipeline.processed.load() !=
        state.iterations() * static_cast<std::uint64_t>(kMessages))
        state.SkipWithError("pipeline lost messages");
    state.SetItemsProcessed(state.iterations() * kMessages);
}
BENCHMARK(BM_BatchedPipeline)
    ->ArgNames({"sites", "threaded", "batch"})
    ->Args({4, 0, 1})
    ->Args({4, 0, 64})
    ->Args({2, 1, 64})
    ->Args({4, 1, 1})
    ->Args({4, 1, 64})
    ->UseRealTime();

/**
 * Profiler overhead on the dispatch path: the same 2-stage pipeline
 * publishing ActivityScopes per hop, with the profiler off (the
 * scope is one relaxed load) vs on (pointer stores per hop plus one
 * sample per 1024-message batch). Gated by scripts/bench_gate.py:
 * the profile:1/profile:0 ratio must stay within the budget.
 */
void
BM_ProfilerOverhead(benchmark::State &state)
{
    const bool profile = state.range(0) != 0;
    obs::Profiler &profiler = obs::Profiler::instance();
    profiler.clear();
    if (profile)
        profiler.enable(1000);
    else
        profiler.disable();

    exec::SimExecutor engine;
    BenchPipeline pipeline(engine, 2);
    pipeline.publishActivity();

    const Payload message{Bytes(64, 0x5a)};
    constexpr int kMessages = 1024;
    std::uint64_t tick = 0;
    for (auto _ : state) {
        for (int i = 0; i < kMessages; ++i)
            pipeline.feed(message);
        engine.drain();
        if (profile)
            profiler.sample(++tick);
    }
    if (pipeline.processed.load() !=
        state.iterations() * static_cast<std::uint64_t>(kMessages))
        state.SkipWithError("pipeline lost messages");
    state.SetItemsProcessed(state.iterations() * kMessages);

    profiler.disable();
    profiler.clear();
}
BENCHMARK(BM_ProfilerOverhead)
    ->ArgNames({"profile"})
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

/**
 * Fleet smoke: a saturating open-loop run on 1 vs 4 hosts. real_time
 * guards the wall-clock cost of simulating a fleet (bench_gate.py's
 * 2x baseline gate); the `vmsgs_per_sec` counter carries the
 * virtual-time goodput, whose hosts:4 / hosts:1 ratio bench_gate.py
 * holds to the >= 2x scaling bar. The sim engine makes the counter deterministic.
 */
void
BM_FleetOpenLoop(benchmark::State &state)
{
    const auto hosts = static_cast<std::size_t>(state.range(0));
    double goodput = 0.0;
    for (auto _ : state) {
        exec::SimExecutor sim;
        fleet::FleetConfig config;
        config.hosts = hosts;
        fleet::Fleet fleet(sim, config);

        fleet::LoadgenConfig load;
        load.streams = 500;
        load.messageBytes = 256;
        load.offeredMsgsPerSec = 5e6; // saturating for one host
        load.duration = sim::milliseconds(10);
        const fleet::LoadgenReport report =
            fleet::runOpenLoop(fleet, load);
        if (report.delivered == 0 || report.writeFailures != 0) {
            state.SkipWithError("fleet run did not deliver cleanly");
            break;
        }
        goodput = report.deliveredPerVirtualSec;
    }
    state.counters["vmsgs_per_sec"] = benchmark::Counter(goodput);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetOpenLoop)
    ->ArgNames({"hosts"})
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/**
 * The Channel Executive's control plane: one stream's destroy +
 * create + connectSite + installHandler, on a 4-host fleet that holds
 * 10k live streams (so registry lookups see a realistic population).
 * remote:1 streams cross hosts (the fleet's remote provider); remote:0
 * stay on one host (a DMA ring from host to NIC). In the
 * check.sh --bench-smoke filter: a fall-back to node-based id maps,
 * per-create registry lookups or per-channel side allocations shows
 * up here first.
 */
void
BM_ChannelLifecycle(benchmark::State &state)
{
    constexpr std::size_t kHosts = 4;
    constexpr std::size_t kStreams = 10000;
    const bool remote = state.range(0) != 0;

    exec::SimExecutor sim;
    fleet::FleetConfig config;
    config.hosts = kHosts;
    config.quietHosts = true;
    config.backgroundLoad = false;
    fleet::Fleet fleet(sim, config);

    struct Stream
    {
        fleet::Host *home = nullptr;
        fleet::Host *target = nullptr;
        core::ChannelId id = core::kInvalidChannel;
    };
    std::uint64_t delivered = 0;
    auto open = [&](Stream &stream) {
        core::ChannelConfig channelConfig;
        channelConfig.name = "bench.lifecycle";
        channelConfig.targetDevice = stream.target->nic().name();
        auto created = stream.home->executive().createChannel(
            channelConfig, stream.home->runtime().hostSite(), 256);
        if (!created)
            return false;
        core::Channel *channel = created.value();
        stream.id = channel->id();
        core::ExecutionSite *site =
            stream.target->runtime().siteByName(channelConfig.targetDevice);
        if (!site)
            return false;
        auto endpoint = channel->connectSite(*site);
        if (!endpoint)
            return false;
        channel->installHandler(
            endpoint.value(),
            [&delivered](const Payload &, std::size_t) { ++delivered; });
        return true;
    };

    std::vector<Stream> streams(kStreams);
    for (std::size_t i = 0; i < kStreams; ++i) {
        Stream &stream = streams[i];
        stream.home = &fleet.host(i % kHosts);
        stream.target = &fleet.host(remote ? (i + 1) % kHosts : i % kHosts);
        if (!open(stream)) {
            state.SkipWithError("stream setup failed");
            return;
        }
    }
    sim.drain();

    std::size_t cursor = 0;
    for (auto _ : state) {
        Stream &stream = streams[cursor++ % kStreams];
        if (!stream.home->executive().destroyChannelById(stream.id) ||
            !open(stream)) {
            state.SkipWithError("churn failed");
            break;
        }
    }
    for (Stream &stream : streams)
        stream.home->executive().destroyChannelById(stream.id);
    sim.drain();
    benchmark::DoNotOptimize(delivered);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelLifecycle)->ArgNames({"remote"})->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
