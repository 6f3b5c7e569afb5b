#include "tivo/mpeg.hh"

#include <cassert>
#include <cstring>

namespace hydra::tivo {

namespace {

constexpr std::uint16_t kFrameMagic = 0x4d4c; // "ML"

/** Run-length encode (count, value) pairs; count in [1, 255]. */
Bytes
rleEncode(const Bytes &input)
{
    Bytes out;
    out.reserve(input.size() / 4 + 16);
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

/**
 * Validate pass over (count, value) pairs: even length, no zero run,
 * and runs that cover exactly @p expected_size bytes. Reads only the
 * payload, so hostile dimensions fail here before any allocation.
 */
Status
validateRle(const Bytes &input, std::uint64_t expected_size)
{
    if (input.size() % 2 != 0)
        return Error(ErrorCode::ParseError, "odd RLE payload");
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < input.size(); i += 2) {
        if (input[i] == 0)
            return Error(ErrorCode::ParseError, "zero-length RLE run");
        total += input[i];
    }
    if (total != expected_size)
        return Error(ErrorCode::ParseError, "RLE size mismatch");
    return Status::success();
}

/** Apply pass for I frames: expand validated runs into @p out. */
void
expandRle(const Bytes &input, std::uint8_t *out)
{
    for (std::size_t i = 0; i < input.size(); i += 2) {
        std::memset(out, input[i + 1], input[i]);
        out += input[i];
    }
}

/**
 * Apply pass for delta frames: add validated runs into @p ref, byte
 * by byte mod 256. Eight bytes go at once (SWAR): adding the low
 * seven bits of each byte cannot carry into the next byte, and the
 * top bits are restored by XOR.
 */
void
addRle(const Bytes &input, std::uint8_t *ref)
{
    constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
    constexpr std::uint64_t kHigh = 0x8080808080808080ull;
    for (std::size_t i = 0; i < input.size(); i += 2) {
        std::size_t run = input[i];
        const std::uint8_t value = input[i + 1];
        if (value == 0) {
            ref += run;
            continue;
        }
        const std::uint64_t splat = 0x0101010101010101ull * value;
        for (; run >= 8; run -= 8, ref += 8) {
            std::uint64_t word;
            std::memcpy(&word, ref, sizeof(word));
            word = ((word & kLow7) + (splat & kLow7)) ^
                   ((word ^ splat) & kHigh);
            std::memcpy(ref, &word, sizeof(word));
        }
        for (; run > 0; --run, ++ref)
            *ref = static_cast<std::uint8_t>(*ref + value);
    }
}

} // namespace

SyntheticVideo::SyntheticVideo(MpegConfig config, std::uint64_t seed)
    : config_(config), seed_(seed)
{
}

RawFrame
SyntheticVideo::frame(std::uint32_t sequence) const
{
    RawFrame out;
    out.width = config_.width;
    out.height = config_.height;
    out.sequence = sequence;
    out.pixels.resize(static_cast<std::size_t>(config_.width) *
                      config_.height);

    // A banded gradient that drifts with time: smooth enough that
    // delta frames compress well, structured enough to detect
    // corruption anywhere in the pipeline.
    const std::uint32_t shift =
        static_cast<std::uint32_t>((seed_ + sequence * 3) & 0xff);
    for (std::uint32_t y = 0; y < config_.height; ++y) {
        const std::uint8_t row_base =
            static_cast<std::uint8_t>((y / 8) * 16 + shift);
        for (std::uint32_t x = 0; x < config_.width; ++x) {
            const std::size_t i =
                static_cast<std::size_t>(y) * config_.width + x;
            std::uint8_t pixel =
                static_cast<std::uint8_t>(row_base + (x / 32));
            // Quasi-static film grain on every fourth pixel: keeps
            // intra-frame RLE runs short (realistic I-frame sizes)
            // while changing slowly (every 8 frames) so delta frames
            // stay much smaller than I frames.
            if (x % 4 == 0) {
                const std::uint64_t h =
                    (seed_ ^
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

MpegEncoder::MpegEncoder(MpegConfig config) : config_(config)
{
    assert(config_.gopLength > 0);
    assert(config_.pSpacing > 0);
}

FrameType
MpegEncoder::frameTypeFor(std::uint32_t sequence) const
{
    const std::uint32_t pos = sequence % config_.gopLength;
    if (pos == 0)
        return FrameType::I;
    return pos % config_.pSpacing == 0 ? FrameType::P : FrameType::B;
}

void
MpegEncoder::reset()
{
    reference_.clear();
    hasReference_ = false;
}

Result<EncodedFrame>
MpegEncoder::encode(const RawFrame &frame)
{
    const std::size_t expected =
        static_cast<std::size_t>(frame.width) * frame.height;
    if (frame.pixels.size() != expected)
        return Error(ErrorCode::InvalidArgument, "frame size mismatch");

    EncodedFrame out;
    out.sequence = frame.sequence;
    out.width = frame.width;
    out.height = frame.height;
    out.type = frameTypeFor(frame.sequence);

    if (out.type == FrameType::I || !hasReference_) {
        out.type = FrameType::I;
        out.payload = rleEncode(frame.pixels);
    } else {
        Bytes delta(frame.pixels.size());
        for (std::size_t i = 0; i < delta.size(); ++i)
            delta[i] = static_cast<std::uint8_t>(frame.pixels[i] -
                                                 reference_[i]);
        out.payload = rleEncode(delta);
    }

    reference_ = frame.pixels;
    hasReference_ = true;
    return out;
}

void
MpegDecoder::reset()
{
    reference_.clear();
    hasReference_ = false;
}

Result<RawFrame>
MpegDecoder::decode(const EncodedFrame &frame)
{
    const std::uint64_t expected =
        static_cast<std::uint64_t>(frame.width) * frame.height;
    const bool intra = frame.type == FrameType::I;
    if (!intra && (!hasReference_ || reference_.size() != expected))
        return Error(ErrorCode::ParseError,
                     "delta frame without matching reference");
    Status valid = validateRle(frame.payload, expected);
    if (!valid)
        return valid.error();

    // Decode into the reference in place; the caller gets a copy.
    if (intra) {
        reference_.resize(expected);
        expandRle(frame.payload, reference_.data());
    } else {
        addRle(frame.payload, reference_.data());
    }
    hasReference_ = true;

    RawFrame out;
    out.width = frame.width;
    out.height = frame.height;
    out.sequence = frame.sequence;
    out.pixels = reference_;
    return out;
}

Bytes
serializeFrame(const EncodedFrame &frame)
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeU16(kFrameMagic);
    writer.writeU8(static_cast<std::uint8_t>(frame.type));
    writer.writeU32(frame.sequence);
    writer.writeU32(frame.width);
    writer.writeU32(frame.height);
    writer.writeBytes(frame.payload);
    return out;
}

void
StreamAssembler::feed(const std::uint8_t *data, std::size_t size)
{
    // Compact occasionally so long streams stay bounded.
    if (pos_ > 0 && pos_ * 2 > buffer_.size()) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + size);
}

Result<EncodedFrame>
StreamAssembler::nextFrame()
{
    // Header: magic(2) type(1) seq(4) w(4) h(4) payload_len(4).
    constexpr std::size_t kHeaderBytes = 19;

    while (true) {
        // Resynchronize on the frame magic, so a consumer that joins
        // the stream mid-frame skips to the next frame boundary.
        while (buffer_.size() - pos_ >= 2 &&
               !(buffer_[pos_] == (kFrameMagic & 0xff) &&
                 buffer_[pos_ + 1] == (kFrameMagic >> 8)))
            ++pos_;

        if (buffer_.size() - pos_ < kHeaderBytes)
            return Error(ErrorCode::NotFound, "incomplete header");

        const std::uint8_t *header = buffer_.data() + pos_;
        ByteReader reader(header + 2, kHeaderBytes - 2);
        const auto type = reader.readU8().value();
        const std::uint32_t seq = reader.readU32().value();
        const std::uint32_t width = reader.readU32().value();
        const std::uint32_t height = reader.readU32().value();
        const std::uint32_t length = reader.readU32().value();

        // No valid frame has an odd RLE payload or more than one run
        // per pixel; such a header is corruption (or magic bytes
        // inside a payload), not a frame worth waiting for.
        const std::uint64_t pixels =
            static_cast<std::uint64_t>(width) * height;
        if (length % 2 != 0 || pixels > kMaxFramePixels ||
            length > 2 * pixels) {
            ++pos_;
            continue;
        }
        if (buffer_.size() - pos_ - kHeaderBytes < length)
            return Error(ErrorCode::NotFound, "incomplete frame payload");

        EncodedFrame frame;
        frame.type = static_cast<FrameType>(type);
        frame.sequence = seq;
        frame.width = width;
        frame.height = height;
        frame.payload.assign(header + kHeaderBytes,
                             header + kHeaderBytes + length);
        pos_ += kHeaderBytes + length;
        return frame;
    }
}

Bytes
encodeMovie(const MpegConfig &config, std::uint32_t frames,
            std::uint64_t seed)
{
    SyntheticVideo source(config, seed);
    MpegEncoder encoder(config);
    Bytes out;
    for (std::uint32_t i = 0; i < frames; ++i) {
        auto encoded = encoder.encode(source.frame(i));
        assert(encoded);
        const Bytes wire = serializeFrame(encoded.value());
        out.insert(out.end(), wire.begin(), wire.end());
    }
    return out;
}

} // namespace hydra::tivo
