/**
 * @file
 * Tests for the MpegLite codec: GOP structure, lossless round trips,
 * stream framing, and the chunk-oriented assembler the Streamer and
 * Decoder components rely on. Hostile input: corrupted stream headers,
 * hostile frame dimensions, and differential tests of the word-at-a-
 * time decoder and encoder against reference copies of the
 * straightforward byte-at-a-time ones. The process-wide movie memo:
 * same bytes as encodeMovie, one buffer per key, safe to race.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "tivo/mpeg.hh"

namespace hydra::tivo {
namespace {

MpegConfig
smallConfig()
{
    MpegConfig config;
    config.width = 64;
    config.height = 48;
    config.gopLength = 9;
    config.pSpacing = 3;
    return config;
}

TEST(MpegTest, GopPattern)
{
    MpegEncoder encoder(smallConfig());
    EXPECT_EQ(encoder.frameTypeFor(0), FrameType::I);
    EXPECT_EQ(encoder.frameTypeFor(3), FrameType::P);
    EXPECT_EQ(encoder.frameTypeFor(6), FrameType::P);
    EXPECT_EQ(encoder.frameTypeFor(1), FrameType::B);
    EXPECT_EQ(encoder.frameTypeFor(2), FrameType::B);
    EXPECT_EQ(encoder.frameTypeFor(9), FrameType::I);
}

TEST(MpegTest, SyntheticVideoDeterministic)
{
    SyntheticVideo a(smallConfig(), 5), b(smallConfig(), 5);
    EXPECT_EQ(a.frame(10).pixels, b.frame(10).pixels);
    EXPECT_NE(a.frame(10).pixels, a.frame(11).pixels);
}

TEST(MpegTest, EncodeDecodeLossless)
{
    const MpegConfig config = smallConfig();
    SyntheticVideo source(config, 42);
    MpegEncoder encoder(config);
    MpegDecoder decoder;

    for (std::uint32_t i = 0; i < 30; ++i) {
        const RawFrame original = source.frame(i);
        auto encoded = encoder.encode(original);
        ASSERT_TRUE(encoded.ok());
        ASSERT_TRUE(decoder.decode(encoded.value()).ok()) << "frame " << i;
        EXPECT_EQ(decoder.frame().pixels, original.pixels)
            << "frame " << i;
        EXPECT_EQ(decoder.frame().sequence, i);
    }
}

TEST(MpegTest, DeltaFramesSmallerThanIFrames)
{
    const MpegConfig config = smallConfig();
    SyntheticVideo source(config, 42);
    MpegEncoder encoder(config);

    const auto iFrame = encoder.encode(source.frame(0));
    const auto bFrame = encoder.encode(source.frame(1));
    ASSERT_TRUE(iFrame.ok());
    ASSERT_TRUE(bFrame.ok());
    EXPECT_EQ(iFrame.value().type, FrameType::I);
    EXPECT_NE(bFrame.value().type, FrameType::I);
    EXPECT_LT(bFrame.value().payload.size(),
              iFrame.value().payload.size());
}

TEST(MpegTest, EncoderRejectsWrongSize)
{
    MpegEncoder encoder(smallConfig());
    RawFrame bad;
    bad.width = 64;
    bad.height = 48;
    bad.pixels.resize(10);
    EXPECT_FALSE(encoder.encode(bad).ok());
}

TEST(MpegTest, DecoderRejectsDeltaWithoutReference)
{
    const MpegConfig config = smallConfig();
    SyntheticVideo source(config, 42);
    MpegEncoder encoder(config);
    encoder.encode(source.frame(0)); // advance GOP state
    auto delta = encoder.encode(source.frame(1));
    ASSERT_TRUE(delta.ok());

    MpegDecoder fresh;
    EXPECT_FALSE(fresh.decode(delta.value()).ok());
}

TEST(MpegTest, FirstFrameAlwaysIntraEvenMidGop)
{
    // A freshly reset encoder must emit I regardless of GOP position.
    MpegEncoder encoder(smallConfig());
    SyntheticVideo source(smallConfig(), 1);
    RawFrame frame = source.frame(4); // GOP position 4 would be B
    auto encoded = encoder.encode(frame);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(encoded.value().type, FrameType::I);
}

TEST(MpegTest, FrameSizeChangeRestartsWithIntra)
{
    // A reference of another size cannot seed a delta (a larger frame
    // would read past it): the encoder must code the new size as an I
    // frame, which decodes on its own.
    MpegConfig big = smallConfig();
    MpegConfig small = smallConfig();
    small.width = 13;
    small.height = 7;
    for (const auto &[first, second] :
         {std::pair{big, small}, std::pair{small, big}}) {
        MpegEncoder encoder(first);
        ASSERT_TRUE(encoder.encode(SyntheticVideo(first, 1).frame(0)).ok());
        const RawFrame frame = SyntheticVideo(second, 1).frame(1);
        auto encoded = encoder.encode(frame);
        ASSERT_TRUE(encoded.ok());
        EXPECT_EQ(encoded.value().type, FrameType::I);
        MpegDecoder decoder;
        ASSERT_TRUE(decoder.decode(encoded.value()).ok());
        EXPECT_EQ(decoder.frame().pixels, frame.pixels);
    }
}

TEST(MpegTest, AssemblerReassemblesFromOddChunks)
{
    const MpegConfig config = smallConfig();
    const Bytes stream = encodeMovie(config, 20, 42);

    StreamAssembler assembler;
    MpegDecoder decoder;
    SyntheticVideo source(config, 42);

    std::size_t decoded = 0;
    std::size_t pos = 0;
    std::size_t chunkSize = 1; // deliberately awkward chunk sizes
    while (pos < stream.size()) {
        const std::size_t n = std::min(chunkSize, stream.size() - pos);
        assembler.feed(Bytes(stream.begin() +
                                 static_cast<std::ptrdiff_t>(pos),
                             stream.begin() +
                                 static_cast<std::ptrdiff_t>(pos + n)));
        pos += n;
        chunkSize = chunkSize % 700 + 13;

        while (true) {
            auto frame = assembler.nextFrame();
            if (!frame.ok())
                break;
            ASSERT_TRUE(decoder.decode(frame.value()).ok());
            EXPECT_EQ(decoder.frame().pixels,
                      source.frame(decoder.frame().sequence).pixels);
            ++decoded;
        }
    }
    EXPECT_EQ(decoded, 20u);
}

TEST(MpegTest, AssemblerResyncsMidStream)
{
    const MpegConfig config = smallConfig();
    const Bytes stream = encodeMovie(config, 10, 42);

    // Join mid-stream: drop the first 100 bytes (mid-frame).
    StreamAssembler assembler;
    assembler.feed(Bytes(stream.begin() + 100, stream.end()));

    MpegDecoder decoder;
    std::size_t decoded = 0;
    std::size_t parseFailures = 0;
    while (true) {
        auto frame = assembler.nextFrame();
        if (!frame.ok())
            break;
        auto raw = decoder.decode(frame.value());
        if (raw.ok())
            ++decoded;
        else {
            ++parseFailures; // pre-I-frame deltas fail, as expected
            decoder.reset();
        }
    }
    EXPECT_GT(decoded, 0u);
}

TEST(MpegTest, MovieBitRateIsRealistic)
{
    // The paper streams 200 kB/s; at ~20-25 fps that needs frames
    // that average a handful of kilobytes.
    MpegConfig config; // default 160x120
    const Bytes movie = encodeMovie(config, 50, 42);
    const double avg = static_cast<double>(movie.size()) / 50.0;
    EXPECT_GT(avg, 2000.0);
    EXPECT_LT(avg, 20000.0);
}

TEST(MpegTest, SerializedFrameHasParseableHeader)
{
    const MpegConfig config = smallConfig();
    SyntheticVideo source(config, 1);
    MpegEncoder encoder(config);
    auto encoded = encoder.encode(source.frame(0));
    const Bytes wire = serializeFrame(encoded.value());

    StreamAssembler assembler;
    assembler.feed(wire);
    auto frame = assembler.nextFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.value().width, 64u);
    EXPECT_EQ(frame.value().height, 48u);
    EXPECT_EQ(frame.value().payload, encoded.value().payload);
    EXPECT_EQ(assembler.bufferedBytes(), 0u);
}

/** Byte offsets of each frame header in a serialized stream. */
std::vector<std::size_t>
frameOffsets(const Bytes &stream)
{
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while (pos + 19 <= stream.size()) {
        out.push_back(pos);
        ByteReader reader(stream.data() + pos + 15, 4);
        pos += 19 + reader.readU32().value();
    }
    return out;
}

/** Feed @p stream in 1 KiB chunks; count frames that decode exactly. */
std::size_t
decodeInChunks(const Bytes &stream, const MpegConfig &config,
               StreamAssembler &assembler)
{
    MpegDecoder decoder;
    SyntheticVideo source(config, 42);
    std::size_t exact = 0;
    for (std::size_t pos = 0; pos < stream.size(); pos += 1024) {
        const std::size_t n = std::min<std::size_t>(1024,
                                                    stream.size() - pos);
        assembler.feed(stream.data() + pos, n);
        while (true) {
            auto frame = assembler.nextFrame();
            if (!frame.ok())
                break;
            if (!decoder.decode(frame.value()).ok()) {
                decoder.reset(); // resync on the next I frame
                continue;
            }
            if (decoder.frame().pixels ==
                source.frame(decoder.frame().sequence).pixels)
                ++exact;
        }
    }
    return exact;
}

TEST(MpegTest, CorruptLengthFieldDoesNotStallTheStream)
{
    // chaos corrupt=P flips one byte; in the top byte of a payload
    // length (header byte 18) it declares a 16 MB frame. The
    // assembler must reject that header instead of waiting for it.
    MpegConfig config; // default 160x120
    Bytes stream = encodeMovie(config, 300, 42);
    const std::vector<std::size_t> offsets = frameOffsets(stream);
    ASSERT_EQ(offsets.size(), 300u);
    stream[offsets[20] + 18] ^= 0x01; // bit 24 of frame 20's length

    StreamAssembler assembler;
    const std::size_t exact = decodeInChunks(stream, config, assembler);
    // Frame 20 and the deltas until the next I frame (27) are lost.
    EXPECT_GE(exact, 300u - config.gopLength);
    EXPECT_EQ(assembler.bufferedBytes(), 0u);
}

TEST(MpegTest, AssemblerSkipsHeadersNoFrameCanHave)
{
    const MpegConfig config = smallConfig();
    SyntheticVideo source(config, 1);
    MpegEncoder encoder(config);
    const Bytes good = serializeFrame(encoder.encode(source.frame(0)).value());

    auto header = [](std::uint32_t width, std::uint32_t height,
                     std::uint32_t length) {
        Bytes out;
        ByteWriter writer(out);
        writer.writeU16(0x4d4c);
        writer.writeU8(static_cast<std::uint8_t>(FrameType::I));
        writer.writeU32(0);
        writer.writeU32(width);
        writer.writeU32(height);
        writer.writeU32(length);
        return out;
    };
    const std::vector<Bytes> bad = {
        header(64, 48, 101),                // odd payload length
        header(64, 48, 2 * 64 * 48 + 2),    // more runs than pixels
        header(8192, 8192, 2),              // above kMaxFramePixels
        header(0xffffffffu, 0xffffffffu, 2) // hostile dimensions
    };
    for (const Bytes &prefix : bad) {
        StreamAssembler assembler;
        assembler.feed(prefix);
        assembler.feed(good);
        auto frame = assembler.nextFrame();
        ASSERT_TRUE(frame.ok());
        EXPECT_EQ(frame.value().width, 64u);
        EXPECT_EQ(assembler.bufferedBytes(), 0u);
    }

    // The largest valid payload (one run per pixel) is accepted.
    EncodedFrame worst;
    worst.width = 4;
    worst.height = 2;
    for (int i = 0; i < 8; ++i) {
        worst.payload.push_back(1);
        worst.payload.push_back(static_cast<std::uint8_t>(i));
    }
    StreamAssembler assembler;
    assembler.feed(serializeFrame(worst));
    auto frame = assembler.nextFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.value().payload, worst.payload);
}

TEST(MpegTest, DecoderRejectsHostileDimensionsWithoutThrowing)
{
    EncodedFrame frame;
    frame.type = FrameType::I;
    frame.width = 0xffffffffu;
    frame.height = 0xffffffffu;
    frame.payload = {255, 7, 255, 7};

    MpegDecoder decoder;
    Status decoded = Error(ErrorCode::Internal);
    EXPECT_NO_THROW(decoded = decoder.decode(frame));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::ParseError);

    // One flipped top byte: a 2 GB frame from a 4 KB payload.
    frame.width = 160 | 0x80000000u;
    frame.height = 120;
    EXPECT_NO_THROW(decoded = decoder.decode(frame));
    EXPECT_FALSE(decoded.ok());
}

/**
 * The decoder this codec shipped with first: expand every run into a
 * fresh vector, then add deltas byte by byte. Kept as the oracle for
 * the validate-then-apply decoder.
 */
class OracleDecoder
{
  public:
    Result<RawFrame>
    decode(const EncodedFrame &frame)
    {
        const std::size_t expected =
            static_cast<std::size_t>(frame.width) * frame.height;
        RawFrame out;
        out.width = frame.width;
        out.height = frame.height;
        out.sequence = frame.sequence;
        if (frame.type == FrameType::I) {
            auto pixels = rleDecode(frame.payload, expected);
            if (!pixels)
                return pixels.error();
            out.pixels = std::move(pixels).value();
        } else {
            if (!hasReference_ || reference_.size() != expected)
                return Error(ErrorCode::ParseError, "no reference");
            auto delta = rleDecode(frame.payload, expected);
            if (!delta)
                return delta.error();
            out.pixels.resize(expected);
            for (std::size_t i = 0; i < expected; ++i)
                out.pixels[i] = static_cast<std::uint8_t>(
                    reference_[i] + delta.value()[i]);
        }
        reference_ = out.pixels;
        hasReference_ = true;
        return out;
    }

    void
    reset()
    {
        reference_.clear();
        hasReference_ = false;
    }

  private:
    static Result<Bytes>
    rleDecode(const Bytes &input, std::size_t expected_size)
    {
        Bytes out;
        out.reserve(expected_size);
        if (input.size() % 2 != 0)
            return Error(ErrorCode::ParseError, "odd RLE payload");
        for (std::size_t i = 0; i < input.size(); i += 2) {
            if (input[i] == 0)
                return Error(ErrorCode::ParseError, "zero run");
            out.insert(out.end(), input[i], input[i + 1]);
        }
        if (out.size() != expected_size)
            return Error(ErrorCode::ParseError, "size mismatch");
        return out;
    }

    Bytes reference_;
    bool hasReference_ = false;
};

/** Damage @p payload the ways a corrupted stream does. */
void
mutate(Bytes &payload, std::mt19937_64 &rng)
{
    if (payload.size() < 4)
        return;
    std::uniform_int_distribution<std::size_t> pair(0,
                                                    payload.size() / 2 - 1);
    switch (rng() % 6) {
      case 0: // odd length
        payload.pop_back();
        break;
      case 1: // zero run
        payload[2 * pair(rng)] = 0;
        break;
      case 2: // one byte short
        if (payload[0] > 1)
            --payload[0];
        else
            payload.erase(payload.begin(), payload.begin() + 2);
        break;
      case 3: // one byte long
        payload.push_back(1);
        payload.push_back(static_cast<std::uint8_t>(rng()));
        break;
      default: // random bit flips (may stay valid with other pixels)
        for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0;
             --flips)
            payload[rng() % payload.size()] ^=
                static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
    }
}

TEST(MpegTest, InPlaceDecoderMatchesOracleOnValidAndMutatedFrames)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        std::mt19937_64 rng(seed);
        MpegConfig config;
        config.width = 1 + static_cast<std::uint32_t>(rng() % 97);
        config.height = 1 + static_cast<std::uint32_t>(rng() % 65);
        config.gopLength = 1 + static_cast<std::uint32_t>(rng() % 12);
        config.pSpacing = 1 + static_cast<std::uint32_t>(rng() % 4);
        SyntheticVideo source(config, seed);
        MpegEncoder encoder(config);
        MpegDecoder decoder;
        OracleDecoder oracle;

        for (std::uint32_t i = 0; i < 120; ++i) {
            EncodedFrame frame = encoder.encode(source.frame(i)).value();
            if (rng() % 4 == 0)
                mutate(frame.payload, rng);
            auto got = decoder.decode(frame);
            auto want = oracle.decode(frame);
            ASSERT_EQ(got.ok(), want.ok())
                << "seed " << seed << " frame " << i;
            if (want.ok()) {
                ASSERT_EQ(decoder.frame().pixels, want.value().pixels)
                    << "seed " << seed << " frame " << i;
                EXPECT_EQ(decoder.frame().sequence, i);
            }
            // A rejected frame leaves both references as they were, so
            // the next delta applies to the same pixels. Now and then
            // the consumer resets, as the Decoder Offcode does.
            if (!want.ok() && rng() % 2 == 0) {
                decoder.reset();
                oracle.reset();
            }
        }
    }
}

/**
 * The synthesis and encoder this codec shipped with first: one pixel
 * per step, a byte-loop delta and a byte-loop run-length coder. Kept
 * as the oracle for the word-at-a-time ones; any moved byte of the
 * stream fails the tests below.
 */
RawFrame
oracleFrame(const MpegConfig &config, std::uint64_t seed,
            std::uint32_t sequence)
{
    RawFrame out;
    out.width = config.width;
    out.height = config.height;
    out.sequence = sequence;
    out.pixels.resize(static_cast<std::size_t>(config.width) *
                      config.height);
    const std::uint32_t shift =
        static_cast<std::uint32_t>((seed + sequence * 3) & 0xff);
    for (std::uint32_t y = 0; y < config.height; ++y) {
        const std::uint8_t row_base =
            static_cast<std::uint8_t>((y / 8) * 16 + shift);
        for (std::uint32_t x = 0; x < config.width; ++x) {
            const std::size_t i =
                static_cast<std::size_t>(y) * config.width + x;
            std::uint8_t pixel =
                static_cast<std::uint8_t>(row_base + (x / 32));
            if (x % 4 == 0) {
                const std::uint64_t h =
                    (seed ^
                     (static_cast<std::uint64_t>(sequence / 8) << 32) ^
                     i) *
                    0x9e3779b97f4a7c15ull;
                pixel = static_cast<std::uint8_t>(pixel + (h >> 61));
            }
            out.pixels[i] = pixel;
        }
    }
    return out;
}

Bytes
oracleRle(const Bytes &input)
{
    Bytes out;
    std::size_t i = 0;
    while (i < input.size()) {
        const std::uint8_t value = input[i];
        std::size_t run = 1;
        while (i + run < input.size() && input[i + run] == value &&
               run < 255)
            ++run;
        out.push_back(static_cast<std::uint8_t>(run));
        out.push_back(value);
        i += run;
    }
    return out;
}

class OracleEncoder
{
  public:
    explicit OracleEncoder(MpegConfig config) : config_(config) {}

    EncodedFrame
    encode(const RawFrame &frame)
    {
        EncodedFrame out;
        out.sequence = frame.sequence;
        out.width = frame.width;
        out.height = frame.height;
        const std::uint32_t pos = frame.sequence % config_.gopLength;
        out.type = pos == 0                      ? FrameType::I
                   : pos % config_.pSpacing == 0 ? FrameType::P
                                                 : FrameType::B;
        if (out.type == FrameType::I || !hasReference_) {
            out.type = FrameType::I;
            out.payload = oracleRle(frame.pixels);
        } else {
            Bytes delta(frame.pixels.size());
            for (std::size_t i = 0; i < delta.size(); ++i)
                delta[i] = static_cast<std::uint8_t>(frame.pixels[i] -
                                                     reference_[i]);
            out.payload = oracleRle(delta);
        }
        reference_ = frame.pixels;
        hasReference_ = true;
        return out;
    }

  private:
    MpegConfig config_;
    Bytes reference_;
    bool hasReference_ = false;
};

/**
 * Encode @p frame with both encoders and expect the same frame; returns
 * the word-at-a-time encoder's.
 */
EncodedFrame
expectSameEncoding(MpegEncoder &encoder, OracleEncoder &oracle,
                   const RawFrame &frame, const std::string &where)
{
    const EncodedFrame want = oracle.encode(frame);
    Result<EncodedFrame> got = encoder.encode(frame);
    EXPECT_TRUE(got.ok()) << where;
    if (!got.ok())
        return {};
    EXPECT_EQ(got.value().type, want.type) << where;
    EXPECT_EQ(got.value().sequence, want.sequence) << where;
    EXPECT_EQ(got.value().payload, want.payload) << where;
    return got.value();
}

TEST(MpegTest, EncoderMatchesOracleOnOddSizes)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        std::mt19937_64 rng(seed);
        // Widths and heights off every word and block multiple, so
        // the partial-word and partial-block tails always run.
        auto oddSize = [&](std::uint32_t limit) {
            const auto n = 1 + static_cast<std::uint32_t>(rng() % limit);
            return n % 4 == 0 ? n + 1 : n;
        };
        MpegConfig config;
        config.width = oddSize(200);
        config.height = oddSize(130);
        config.gopLength = 1 + static_cast<std::uint32_t>(rng() % 12);
        config.pSpacing = 1 + static_cast<std::uint32_t>(rng() % 4);
        SyntheticVideo source(config, seed);
        MpegEncoder encoder(config);
        MpegEncoder streamer(config);
        OracleEncoder oracle(config);
        OracleEncoder streamOracle(config);
        Bytes stream;
        Bytes oracleStream;
        RawFrame rendered;

        for (std::uint32_t i = 0; i < 40; ++i) {
            const std::string where = "seed " + std::to_string(seed) +
                                      " frame " + std::to_string(i);
            const RawFrame want = oracleFrame(config, seed, i);
            const RawFrame got = source.frame(i);
            ASSERT_EQ(got.pixels, want.pixels) << where;
            source.render(i, rendered); // reuses the previous buffer
            ASSERT_EQ(rendered.pixels, want.pixels) << where;
            expectSameEncoding(encoder, oracle, got, where);

            ASSERT_TRUE(streamer.encodeTo(rendered, stream).ok());
            const Bytes wire = serializeFrame(streamOracle.encode(want));
            oracleStream.insert(oracleStream.end(), wire.begin(),
                                wire.end());
            ASSERT_EQ(stream, oracleStream) << where;
        }
        EXPECT_EQ(encodeMovie(config, 40, seed), oracleStream)
            << "seed " << seed;
    }
}

/** A width x 1 frame made of @p runs, alternating between two values. */
RawFrame
runsFrame(const std::vector<std::size_t> &runs, std::uint32_t sequence,
          std::uint8_t base)
{
    RawFrame frame;
    frame.sequence = sequence;
    for (std::size_t k = 0; k < runs.size(); ++k)
        frame.pixels.insert(frame.pixels.end(), runs[k],
                            static_cast<std::uint8_t>(base + k % 2));
    frame.width = static_cast<std::uint32_t>(frame.pixels.size());
    frame.height = 1;
    return frame;
}

TEST(MpegTest, EncoderMatchesOracleOnRunLengthEdges)
{
    // Runs on both sides of the word (8), block (64) and count (255)
    // limits. Rotating the list starts each run at many offsets
    // within a word and a 64-byte block.
    std::vector<std::size_t> runs = {1,  7,  8,   9,   63,
                                     64, 65, 255, 256, 511};
    MpegConfig config;
    config.gopLength = 4;
    config.pSpacing = 2;
    for (std::size_t rotation = 0; rotation < runs.size(); ++rotation) {
        MpegEncoder encoder(config);
        OracleEncoder oracle(config);
        MpegDecoder decoder;
        // I, B, P, B: each frame alternates differently, so the deltas
        // carry runs of their own.
        for (std::uint32_t i = 0; i < 4; ++i) {
            const std::string where = "rotation " +
                                      std::to_string(rotation) +
                                      " frame " + std::to_string(i);
            const RawFrame frame = runsFrame(
                runs, i, static_cast<std::uint8_t>(7 + 3 * i * i));
            ASSERT_TRUE(decoder
                            .decode(expectSameEncoding(encoder, oracle,
                                                       frame, where))
                            .ok())
                << where;
            EXPECT_EQ(decoder.frame().pixels, frame.pixels) << where;
        }
        std::rotate(runs.begin(), runs.begin() + 1, runs.end());
    }

    // A frame of one value: nothing but 255-byte runs and a remainder.
    MpegEncoder encoder(config);
    OracleEncoder oracle(config);
    RawFrame flat;
    flat.width = 160;
    flat.height = 120;
    flat.pixels.assign(160 * 120, 0x5a);
    expectSameEncoding(encoder, oracle, flat, "flat frame");
    flat.sequence = 1;
    expectSameEncoding(encoder, oracle, flat, "flat delta");
}

TEST(MpegTest, DefaultMovieIsPinned)
{
    // The default TiVo movie (160x120, GOP 9, 192 frames, seed 42), as
    // the byte-at-a-time encoder wrote it: size and 64-bit FNV-1a.
    const Bytes movie = encodeMovie(MpegConfig{}, 192, 42);
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const std::uint8_t byte : movie) {
        digest ^= byte;
        digest *= 0x100000001b3ull;
    }
    EXPECT_EQ(movie.size(), 801756u);
    EXPECT_EQ(digest, 0x967aef3890e8cb45ull);
}

TEST(MovieMemoTest, SharedMovieIsTheEncodedMovie)
{
    const MpegConfig small = smallConfig();
    for (const auto &[config, frames, seed] :
         {std::tuple{small, 20u, std::uint64_t{42}},
          std::tuple{MpegConfig{}, 30u, std::uint64_t{7}}}) {
        const auto movie = sharedMovie(config, frames, seed);
        ASSERT_NE(movie, nullptr);
        EXPECT_EQ(*movie, encodeMovie(config, frames, seed));
    }
}

TEST(MovieMemoTest, RepeatedKeySharesOneBuffer)
{
    const MpegConfig config = smallConfig();
    const auto first = sharedMovie(config, 12, 5);
    const auto second = sharedMovie(config, 12, 5);
    EXPECT_EQ(first.get(), second.get());
    // Every field of the key counts: a different seed, length or
    // config is a different movie.
    EXPECT_NE(sharedMovie(config, 12, 6).get(), first.get());
    EXPECT_NE(sharedMovie(config, 13, 5).get(), first.get());
    MpegConfig wider = config;
    wider.width += 8;
    EXPECT_NE(sharedMovie(wider, 12, 5).get(), first.get());
}

TEST(MovieMemoTest, AlternatingKeysReencodeCorrectly)
{
    // The memo holds one entry, so each switch of key encodes again;
    // buffers handed out earlier stay valid and unchanged.
    const MpegConfig config = smallConfig();
    const Bytes a = encodeMovie(config, 15, 1);
    const Bytes b = encodeMovie(config, 15, 2);
    std::vector<std::shared_ptr<const Bytes>> kept;
    for (int round = 0; round < 3; ++round) {
        kept.push_back(sharedMovie(config, 15, 1));
        kept.push_back(sharedMovie(config, 15, 2));
    }
    for (std::size_t i = 0; i < kept.size(); ++i)
        EXPECT_EQ(*kept[i], i % 2 == 0 ? a : b) << "handout " << i;
}

TEST(MovieMemoTest, ConcurrentCallersGetIdenticalBytes)
{
    const MpegConfig config = smallConfig();
    for (int callers = 2; callers <= 4; ++callers) {
        // A key no earlier caller used, so the callers race to encode.
        const auto seed = static_cast<std::uint64_t>(1000 + callers);
        const Bytes wanted = encodeMovie(config, 24, seed);
        std::vector<std::shared_ptr<const Bytes>> got(callers);
        std::vector<std::thread> threads;
        for (int t = 0; t < callers; ++t)
            threads.emplace_back(
                [&, t]() { got[t] = sharedMovie(config, 24, seed); });
        for (auto &thread : threads)
            thread.join();
        for (int t = 0; t < callers; ++t) {
            ASSERT_NE(got[t], nullptr);
            EXPECT_EQ(*got[t], wanted) << callers << " callers, #" << t;
            EXPECT_EQ(got[t].get(), got[0].get());
        }
    }
}

} // namespace
} // namespace hydra::tivo
