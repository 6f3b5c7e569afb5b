/**
 * @file
 * Component-level tests for the TiVoPC Offcodes: lifecycle, the File
 * Offcode's interface methods and its segmented recording (reads,
 * flushes and snapshots across segments, restart handoff), the disk
 * Streamer's replay state machine, the server File's credit-based
 * prefetch, decoder resynchronization under packet loss, and
 * host-fallback paths.
 */

#include <gtest/gtest.h>

#include "exec/sim_executor.hh"
#include "tivo/harness.hh"

namespace hydra::tivo {
namespace {

TestbedConfig
offloadedConfig()
{
    TestbedConfig config;
    config.server = ServerKind::Offloaded;
    config.client = ClientKind::Offloaded;
    config.duration = sim::seconds(15);
    config.warmup = sim::seconds(2);
    config.movieFrames = 96;
    return config;
}

TEST(ComponentTest, DisplayMessageMatchesWireLayout)
{
    RawFrame frame;
    frame.width = 3;
    frame.height = 2;
    frame.sequence = 7;
    frame.pixels = {1, 2, 3, 4, 5, 6};

    // A Data message ([kind 3][body length u32]) around the body
    // [width u32][height u32][sequence u32][pixel count u32][pixels].
    const Bytes expected = {3, 22, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0,
                            7, 0, 0, 0, 6, 0, 0, 0, 1, 2, 3, 4, 5, 6};
    const Payload wire = encodeFrameMessage(frame);
    EXPECT_EQ(wire, expected);

    auto body = core::decodeData(wire);
    ASSERT_TRUE(body.ok());
    auto parsed = parseFrameMessage(body.value());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().width, 3u);
    EXPECT_EQ(parsed.value().height, 2u);
    EXPECT_EQ(parsed.value().sequence, 7u);
    EXPECT_EQ(parsed.value().pixels, frame.pixels);
    // The pixels are a slice of the message, not a copy.
    EXPECT_EQ(parsed.value().pixels.data(), wire.data() + 21);

    // A body that promises more pixels than it carries is rejected.
    EXPECT_FALSE(parseFrameMessage(body.value().slice(0, 20)).ok());
}

TEST(ComponentTest, DisplayHostFallbackDmasTheFrameSlice)
{
    // No GPU attached to the runtime, so the layout places Display on
    // the host, which DMAs each frame to the framebuffer. The DMA
    // completion must present the pixels the message carried.
    exec::SimExecutor executor;
    hw::Machine machine(executor, hw::MachineConfig{});
    dev::Gpu gpu(executor, machine.bus());
    core::Runtime runtime(machine);
    auto env = std::make_shared<TivoEnv>();
    env->gpu = &gpu;
    std::vector<std::uint32_t> presented;
    env->onFramePresented = [&](std::uint32_t seq) {
        presented.push_back(seq);
    };
    ASSERT_TRUE(registerTivoOffcodes(runtime, env, TivoRole::Client).ok());

    Result<core::OffcodeHandle> display = Error(ErrorCode::Internal);
    runtime.createOffcode("tivo.Display",
                          [&](Result<core::OffcodeHandle> deployed) {
                              display = std::move(deployed);
                          });
    executor.runUntil(sim::milliseconds(100));
    ASSERT_TRUE(display.ok());
    ASSERT_TRUE(display.value().site->isHost());

    auto channel = runtime.executive().createChannel(core::ChannelConfig{},
                                                     runtime.hostSite());
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE(
        channel.value()->connectOffcode(*display.value().offcode).ok());

    RawFrame frame;
    frame.width = 4;
    frame.height = 2;
    frame.sequence = 9;
    frame.pixels = {8, 7, 6, 5, 4, 3, 2, 1};
    ASSERT_TRUE(channel.value()->write(encodeFrameMessage(frame)).ok());
    executor.runUntil(sim::milliseconds(200));

    EXPECT_EQ(gpu.framesPresented(), 1u);
    EXPECT_EQ(gpu.lastFrame(), frame.pixels);
    EXPECT_EQ(presented, (std::vector<std::uint32_t>{9}));
}

TEST(ComponentTest, FileOffcodeReadAndSizeMethods)
{
    Testbed testbed(offloadedConfig());
    testbed.offloadedClient()->startWatching();
    testbed.server()->startStreaming();
    testbed.executor().runUntil(sim::seconds(5));

    auto *file = testbed.offloadedClient()->component<FileOffcode>(
        "tivo.File");
    ASSERT_NE(file, nullptr);
    const std::uint64_t stored = file->bytesStored();
    ASSERT_GT(stored, 0u);

    // Size method.
    auto size = file->invoke("Size", Bytes{});
    ASSERT_TRUE(size.ok());
    ByteReader sizeReader(size.value());
    EXPECT_EQ(sizeReader.readU64().value(), stored);

    // Read method returns the recorded prefix bytes.
    Bytes args;
    ByteWriter writer(args);
    writer.writeU64(0);
    writer.writeU32(64);
    auto data = file->invoke("Read", args);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data.value().size(), 64u);

    // Reading past EOF yields empty (EOF marker for replay).
    Bytes eofArgs;
    ByteWriter eofWriter(eofArgs);
    eofWriter.writeU64(stored + 100);
    eofWriter.writeU32(64);
    auto eof = file->invoke("Read", eofArgs);
    ASSERT_TRUE(eof.ok());
    EXPECT_TRUE(eof.value().empty());

    // Bad arguments are rejected.
    EXPECT_FALSE(file->invoke("Read", Bytes{1, 2}).ok());
    EXPECT_FALSE(file->invoke("NoSuchMethod", Bytes{}).ok());
}

TEST(ComponentTest, RecordedStreamMatchesWire)
{
    // The disk Streamer stores chunks unmodified, so the recording
    // must be a byte-exact prefix of the movie stream.
    TestbedConfig config = offloadedConfig();
    Testbed testbed(config);
    testbed.offloadedClient()->startWatching();
    testbed.server()->startStreaming();
    testbed.executor().runUntil(sim::seconds(5));

    auto *file = testbed.offloadedClient()->component<FileOffcode>(
        "tivo.File");
    ASSERT_NE(file, nullptr);
    ASSERT_GT(file->bytesStored(), 2048u);

    Bytes args;
    ByteWriter writer(args);
    writer.writeU64(0);
    writer.writeU32(2048);
    auto recorded = file->invoke("Read", args);
    ASSERT_TRUE(recorded.ok());

    const Bytes movie =
        encodeMovie(config.mpeg, config.movieFrames, config.seed);
    ASSERT_GE(movie.size(), 2048u);
    EXPECT_TRUE(std::equal(recorded.value().begin(),
                           recorded.value().end(), movie.begin()));
}

/** Up to @p length recorded bytes from @p offset on, via Read. */
Bytes
readRecording(FileOffcode &file, std::uint64_t offset, std::uint32_t length)
{
    Bytes args;
    ByteWriter writer(args);
    writer.writeU64(offset);
    writer.writeU32(length);
    auto data = file.invoke("Read", args);
    EXPECT_TRUE(data.ok());
    return data.ok() ? data.value() : Bytes{};
}

/** The whole recording, read in pieces that straddle the segments. */
Bytes
readWholeRecording(FileOffcode &file)
{
    Bytes out;
    for (;;) {
        const Bytes piece = readRecording(file, out.size(), 7777);
        if (piece.empty())
            return out;
        out.insert(out.end(), piece.begin(), piece.end());
    }
}

/** The snapshot layout of a contiguous recording: flush cursor, bytes. */
Bytes
contiguousSnapshot(std::uint64_t flushed, const Bytes &recording)
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeU64(flushed);
    writer.writeBytes(recording);
    return out;
}

/** A testbed that has recorded 5 s of the stream, then stopped it. */
class RecordingTest : public ::testing::Test
{
  protected:
    RecordingTest() : testbed_(offloadedConfig())
    {
        testbed_.offloadedClient()->startWatching();
        testbed_.server()->startStreaming();
        testbed_.executor().runUntil(sim::seconds(5));
        testbed_.server()->stop();
        testbed_.executor().runUntil(sim::seconds(6));
    }

    FileOffcode &
    file()
    {
        auto *file = testbed_.offloadedClient()->component<FileOffcode>(
            "tivo.File");
        EXPECT_NE(file, nullptr);
        return *file;
    }

    Testbed testbed_;
};

TEST_F(RecordingTest, ReadAndSizeAcrossSegmentBoundaries)
{
    constexpr std::size_t kSegment = FileOffcode::kSegmentBytes;
    const std::uint64_t stored = file().bytesStored();
    ASSERT_GT(stored, 3 * kSegment);

    auto size = file().invoke("Size", Bytes{});
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(ByteReader(size.value()).readU64().value(), stored);

    // Below the movie's length the recording is its prefix.
    const TestbedConfig config = offloadedConfig();
    const Bytes movie =
        encodeMovie(config.mpeg, config.movieFrames, config.seed);
    ASSERT_GT(movie.size(), 3 * kSegment);
    const auto movieAt = [&](std::size_t offset, std::size_t length) {
        return Bytes(movie.begin() + static_cast<std::ptrdiff_t>(offset),
                     movie.begin() +
                         static_cast<std::ptrdiff_t>(offset + length));
    };
    // One boundary, a read ending exactly on one, one starting on one,
    // and a read across two whole segments.
    EXPECT_EQ(readRecording(file(), kSegment - 100, 300),
              movieAt(kSegment - 100, 300));
    EXPECT_EQ(readRecording(file(), kSegment - 100, 100),
              movieAt(kSegment - 100, 100));
    EXPECT_EQ(readRecording(file(), 2 * kSegment, 50),
              movieAt(2 * kSegment, 50));
    EXPECT_EQ(readRecording(file(), 10, 2 * kSegment + 20),
              movieAt(10, 2 * kSegment + 20));

    // A read past the end is cut at the end, even inside a segment.
    const Bytes tail = readRecording(file(), stored - 10, 1000);
    EXPECT_EQ(tail.size(), 10u);
    EXPECT_EQ(readWholeRecording(file()).size(), stored);
}

TEST_F(RecordingTest, SnapshotIsTheContiguousEncoding)
{
    // On the smart disk the flush cursor is the last whole block.
    const std::uint64_t stored = file().bytesStored();
    const std::uint64_t flushed = stored - stored % 4096;
    EXPECT_EQ(file().snapshotState(),
              contiguousSnapshot(flushed, readWholeRecording(file())));
}

TEST_F(RecordingTest, RestartWithStateHandoffServesIdenticalBytes)
{
    FileOffcode *before = &file();
    const Bytes recording = readWholeRecording(*before);
    const Bytes snapshot = before->snapshotState();

    ASSERT_TRUE(
        testbed_.clientRuntime()->restartOffcode("tivo.File").ok());
    FileOffcode &after = file();
    EXPECT_NE(&after, before);
    EXPECT_EQ(after.bytesStored(), recording.size());
    EXPECT_EQ(readWholeRecording(after), recording);
    EXPECT_EQ(after.snapshotState(), snapshot);
}

TEST(RecordingStoreTest, RestoreRoundTrips)
{
    // Three and a half segments of a pattern that differs per segment.
    Bytes recording(FileOffcode::kSegmentBytes * 7 / 2);
    for (std::size_t i = 0; i < recording.size(); ++i)
        recording[i] = static_cast<std::uint8_t>(i * 7 + i / 65536);
    const Bytes snapshot = contiguousSnapshot(12288, recording);

    FileOffcode file(std::make_shared<TivoEnv>(), "tivo.File");
    file.restoreState(snapshot);
    EXPECT_EQ(file.bytesStored(), recording.size());
    EXPECT_EQ(file.snapshotState(), snapshot);

    // A truncated snapshot leaves the store as it was.
    file.restoreState(Bytes(snapshot.begin(), snapshot.begin() + 100));
    EXPECT_EQ(file.snapshotState(), snapshot);

    // An empty recording restores to an empty store.
    const Bytes empty = contiguousSnapshot(0, {});
    file.restoreState(empty);
    EXPECT_EQ(file.bytesStored(), 0u);
    EXPECT_EQ(file.snapshotState(), empty);
}

TEST(RecordingStoreTest, FlushBlocksStraddleSegments)
{
    // 3000-byte blocks do not divide a 64 KiB segment, so some blocks
    // take their bytes from two segments.
    constexpr std::size_t kBlock = 3000;
    static_assert(FileOffcode::kSegmentBytes % kBlock != 0);
    exec::SimExecutor executor;
    hw::Machine machine(executor, hw::MachineConfig{});
    dev::DiskConfig diskConfig;
    diskConfig.blockBytes = kBlock;
    dev::SmartDisk disk(executor, machine.bus(),
                        dev::SmartDisk::diskDefaultConfig(), diskConfig);
    core::Runtime runtime(machine);
    ASSERT_TRUE(runtime.attachDevice(disk).ok());
    auto env = std::make_shared<TivoEnv>();
    env->disk = &disk;
    ASSERT_TRUE(registerTivoOffcodes(runtime, env, TivoRole::Client).ok());

    Result<core::OffcodeHandle> deployed = Error(ErrorCode::Internal);
    runtime.createOffcode("tivo.File",
                          [&](Result<core::OffcodeHandle> handle) {
                              deployed = std::move(handle);
                          });
    executor.runUntil(sim::milliseconds(100));
    ASSERT_TRUE(deployed.ok());
    ASSERT_EQ(deployed.value().site->device(), &disk);
    auto channel = runtime.executive().createChannel(core::ChannelConfig{},
                                                     runtime.hostSite());
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE(
        channel.value()->connectOffcode(*deployed.value().offcode).ok());

    // 200 chunks of 1000 bytes: three segments and part of a fourth.
    Bytes written;
    for (int chunk = 0; chunk < 200; ++chunk) {
        Bytes data(1000);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(written.size() + i * 13 +
                                                chunk);
        written.insert(written.end(), data.begin(), data.end());
        ASSERT_TRUE(channel.value()->write(core::encodeData(data)).ok());
        executor.runUntil(executor.now() + sim::milliseconds(1));
    }
    executor.runUntil(executor.now() + sim::milliseconds(100));

    const std::uint32_t blocks =
        static_cast<std::uint32_t>(written.size() / kBlock);
    EXPECT_EQ(disk.blocksWritten(), blocks);
    Bytes onDisk;
    disk.readBlocks(0, blocks, [&](Result<Bytes> data) {
        ASSERT_TRUE(data.ok());
        onDisk = data.value();
    });
    executor.runUntil(executor.now() + sim::milliseconds(10));
    written.resize(blocks * kBlock);
    EXPECT_EQ(onDisk, written);
}

TEST(ComponentTest, ReplayStateMachine)
{
    Testbed testbed(offloadedConfig());
    testbed.offloadedClient()->startWatching();
    testbed.server()->startStreaming();
    testbed.executor().runUntil(sim::seconds(5));
    testbed.server()->stop();
    testbed.executor().runUntil(sim::seconds(6));

    auto *diskStreamer =
        testbed.offloadedClient()->component<StreamerDiskOffcode>(
            "tivo.StreamerDisk");
    ASSERT_NE(diskStreamer, nullptr);
    EXPECT_FALSE(diskStreamer->replaying());

    // Start replay; duplicate requests are idempotent.
    testbed.offloadedClient()->replay();
    testbed.offloadedClient()->replay();
    testbed.executor().runUntil(sim::seconds(8));
    EXPECT_TRUE(diskStreamer->replaying());
    const auto replayed = diskStreamer->chunksReplayed();
    EXPECT_GT(replayed, 0u);

    // Stop; counter freezes.
    testbed.offloadedClient()->stopReplay();
    testbed.executor().runUntil(sim::seconds(9));
    const auto frozen = diskStreamer->chunksReplayed();
    testbed.executor().runUntil(sim::seconds(11));
    EXPECT_LE(diskStreamer->chunksReplayed(), frozen + 1);
    EXPECT_FALSE(diskStreamer->replaying());

    // Replay can be restarted (from the beginning of the recording).
    testbed.offloadedClient()->replay();
    testbed.executor().runUntil(sim::seconds(13));
    EXPECT_GT(diskStreamer->chunksReplayed(), frozen);
}

TEST(ComponentTest, ReplayDrainsToEndOfRecordingAndStops)
{
    Testbed testbed(offloadedConfig());
    testbed.offloadedClient()->startWatching();
    testbed.server()->startStreaming();
    testbed.executor().runUntil(sim::seconds(4));
    testbed.server()->stop();
    testbed.executor().runUntil(sim::seconds(5));

    auto *file = testbed.offloadedClient()->component<FileOffcode>(
        "tivo.File");
    auto *diskStreamer =
        testbed.offloadedClient()->component<StreamerDiskOffcode>(
            "tivo.StreamerDisk");
    ASSERT_NE(file, nullptr);
    ASSERT_NE(diskStreamer, nullptr);

    const std::uint64_t recordedBytes = file->bytesStored();
    const auto recordedChunks = recordedBytes / 1024;

    testbed.offloadedClient()->replay();
    // ~4 s of recording at 5 ms per chunk takes ~4 s to replay; give
    // it ample time and verify it self-terminates at EOF.
    testbed.executor().runUntil(sim::seconds(5) +
                                 sim::milliseconds(6) *
                                     (recordedChunks + 100));
    EXPECT_FALSE(diskStreamer->replaying());
    EXPECT_GE(diskStreamer->chunksReplayed() + 1, recordedChunks);
}

TEST(ComponentTest, ServerFileCreditFlowKeepsBufferBounded)
{
    Testbed testbed(offloadedConfig());
    testbed.server()->startStreaming();
    testbed.executor().runUntil(sim::seconds(10));

    core::Runtime &rt = *testbed.serverRuntime();
    auto fileHandle = rt.getOffcode("tivo.server.File");
    auto streamerHandle = rt.getOffcode("tivo.server.Streamer");
    ASSERT_TRUE(fileHandle.ok());
    ASSERT_TRUE(streamerHandle.ok());

    const auto *file = static_cast<const ServerFileOffcode *>(
        fileHandle.value().offcode);
    const auto *streamer = static_cast<const ServerStreamerOffcode *>(
        streamerHandle.value().offcode);

    // The streamer consumed ~ (10 s - startup) / 5 ms chunks; File
    // can only ever be one prefetch window ahead of consumption.
    EXPECT_GT(streamer->chunksSent(), 1500u);
    EXPECT_LE(file->chunksServed(),
              streamer->chunksSent() + 32 /*prefetchWindow*/ + 1);
    EXPECT_GE(file->chunksServed(), streamer->chunksSent());
    // Steady state reached without underruns after the first window.
    EXPECT_LE(streamer->underruns(), 2u);
}

TEST(ComponentTest, DecoderResynchronizesUnderPacketLoss)
{
    TestbedConfig config = offloadedConfig();
    config.dropProbability = 0.05; // 5 % video datagram loss
    config.duration = sim::seconds(30);
    Testbed testbed(config);
    const ScenarioResult result = testbed.run();

    ASSERT_TRUE(result.deploymentOk);
    EXPECT_GT(result.networkDrops, 50u);

    auto *decoder = testbed.offloadedClient()->component<DecoderOffcode>(
        "tivo.Decoder");
    ASSERT_NE(decoder, nullptr);
    // Losses corrupt GOPs, but the decoder recovers on I frames and
    // keeps presenting video.
    EXPECT_GT(decoder->decodeErrors(), 0u);
    EXPECT_GT(result.framesDisplayed, 200u);
}

TEST(ComponentTest, GuiReplayFailsBeforeDeployment)
{
    Testbed testbed(offloadedConfig());
    // No startWatching(): nothing deployed yet.
    Status replay = testbed.offloadedClient()->replay();
    EXPECT_FALSE(replay);
}

TEST(ComponentTest, StopQuiescesThePipeline)
{
    Testbed testbed(offloadedConfig());
    testbed.offloadedClient()->startWatching();
    testbed.server()->startStreaming();
    testbed.executor().runUntil(sim::seconds(5));

    testbed.server()->stop();
    testbed.offloadedClient()->stop();
    testbed.executor().runUntil(sim::seconds(6));

    auto *display = testbed.offloadedClient()->component<DisplayOffcode>(
        "tivo.Display");
    ASSERT_NE(display, nullptr);
    const auto frames = display->framesPresented();
    testbed.executor().runUntil(sim::seconds(8));
    // Nothing flows after stop.
    EXPECT_EQ(display->framesPresented(), frames);
}

TEST(ComponentTest, OffcodeLifecycleOrderEnforced)
{
    auto env = std::make_shared<TivoEnv>();
    DecoderOffcode decoder(env);

    // Start before initialize is rejected.
    EXPECT_FALSE(decoder.doStart().ok());
    EXPECT_EQ(decoder.state(), core::OffcodeState::Created);
}

} // namespace
} // namespace hydra::tivo
