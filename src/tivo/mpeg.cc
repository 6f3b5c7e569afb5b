#include "tivo/mpeg.hh"

#include <bit>
#include <cassert>
#include <cstring>
#include <mutex>

namespace hydra::tivo {

namespace {

constexpr std::uint16_t kFrameMagic = 0x4d4c; // "ML"
/** Stream header: magic(2) type(1) seq(4) w(4) h(4) payload_len(4). */
constexpr std::size_t kHeaderBytes = 19;

// The codec works a 64-bit word at a time, with byte k of a word at
// bits 8k..8k+7: the byte order of a little-endian load.
static_assert(std::endian::native == std::endian::little,
              "MpegLite's word loops assume a little-endian host");

constexpr std::uint64_t kOnes = 0x0101010101010101ull;
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
constexpr std::uint64_t kHigh = 0x8080808080808080ull;

std::uint64_t
load(const std::uint8_t *at)
{
    std::uint64_t word;
    std::memcpy(&word, at, sizeof(word));
    return word;
}

void
store(std::uint8_t *at, std::uint64_t word)
{
    std::memcpy(at, &word, sizeof(word));
}

/**
 * Byte-wise a - b mod 256 (SWAR). Setting each byte's top bit in a
 * and clearing it in b keeps every borrow inside its byte; the top
 * bits are then fixed by XOR.
 */
constexpr auto subBytes = [](std::uint64_t a, std::uint64_t b) {
    return ((a | kHigh) - (b & kLow7)) ^ ((a ^ ~b) & kHigh);
};

/**
 * Byte-wise a + b mod 256 (SWAR): adding the low seven bits of each
 * byte cannot carry into the next byte, and the top bits are restored
 * by XOR.
 */
constexpr auto addBytes = [](std::uint64_t a, std::uint64_t b) {
    return ((a & kLow7) + (b & kLow7)) ^ ((a ^ b) & kHigh);
};

/**
 * out[i] = op(a[i], b[i]) over @p size bytes, a word at a time (two
 * independent words per step); the last 15 bytes or fewer go through
 * zero-padded copies. @p out may alias @p a or @p b. The ops above are
 * lambdas so that @p op inlines; through a function pointer the loop
 * ran at half speed.
 */
template <typename Op>
void
mapWords(const std::uint8_t *a, const std::uint8_t *b, std::uint8_t *out,
         std::size_t size, Op op)
{
    std::size_t i = 0;
    for (; i + 16 <= size; i += 16) {
        const std::uint64_t low = op(load(a + i), load(b + i));
        const std::uint64_t high = op(load(a + i + 8), load(b + i + 8));
        store(out + i, low);
        store(out + i + 8, high);
    }
    for (; i < size; i += 8) {
        const std::size_t n = size - i < 8 ? size - i : 8;
        std::uint64_t wa = 0, wb = 0;
        std::memcpy(&wa, a + i, n);
        std::memcpy(&wb, b + i, n);
        const std::uint64_t word = op(wa, wb);
        std::memcpy(out + i, &word, n);
    }
}

/** Bit k set for each nonzero byte k of @p x. */
std::uint64_t
nonzeroByteBits(std::uint64_t x)
{
    // Top bit of each byte: set when any of its bits is.
    const std::uint64_t high = (((x & kLow7) + kLow7) | x) & kHigh;
    // Gather the eight flags (bits 0, 8, ..., 56) into the top byte.
    return ((high >> 7) * 0x0102040810204080ull) >> 56;
}

/**
 * Run starts among the 64 bytes at @p block: bit k is set when byte k
 * differs from the byte before it (@p prev for byte 0). Each word is
 * XORed with itself shifted back one byte.
 */
std::uint64_t
runStarts(const std::uint8_t *block, std::uint8_t prev)
{
    std::uint64_t starts = 0;
    std::uint64_t carry = prev;
    for (unsigned k = 0; k < 64; k += 8) {
        const std::uint64_t word = load(block + k);
        starts |= nonzeroByteBits(word ^ (word << 8 | carry)) << k;
        carry = word >> 56;
    }
    return starts;
}

/**
 * Run-length encode @p size bytes as (count, value) pairs, count in
 * [1, 255]; a longer run splits into 255-byte runs and a remainder.
 * Writes at most 2 * size bytes to @p out and returns how many. Run
 * starts are found 64 bytes at a time, so the emit loop steps once
 * per run, not once per byte.
 */
std::size_t
rleEncode(const std::uint8_t *in, std::size_t size, std::uint8_t *out)
{
    if (size == 0)
        return 0;
    std::uint8_t *const first = out;
    std::size_t open = 0; // first byte of the run being measured
    const auto close = [&](std::size_t end) {
        const std::uint8_t value = in[open];
        std::size_t run = end - open;
        for (; run > 255; run -= 255, out += 2) {
            out[0] = 255;
            out[1] = value;
        }
        out[0] = static_cast<std::uint8_t>(run);
        out[1] = value;
        out += 2;
        open = end;
    };
    std::uint8_t prev = in[0];
    std::size_t base = 0;
    for (; base + 64 <= size; base += 64) {
        for (std::uint64_t starts = runStarts(in + base, prev); starts != 0;
             starts &= starts - 1)
            close(base + static_cast<std::size_t>(std::countr_zero(starts)));
        prev = in[base + 63];
    }
    if (const std::size_t rest = size - base) {
        // The last partial block, zero-padded; starts in the padding
        // are masked off.
        std::uint8_t tail[64] = {};
        std::memcpy(tail, in + base, rest);
        for (std::uint64_t starts =
                 runStarts(tail, prev) & ((std::uint64_t{1} << rest) - 1);
             starts != 0; starts &= starts - 1)
            close(base + static_cast<std::size_t>(std::countr_zero(starts)));
    }
    close(size);
    return static_cast<std::size_t>(out - first);
}

/**
 * Validate pass over (count, value) pairs: even length, no zero run,
 * and runs that cover exactly @p expected_size bytes. Four pairs go
 * at once: the counts are the 16-bit lanes of a word masked to its
 * even bytes. Reads only the payload, so hostile dimensions fail here
 * before any allocation.
 */
Status
validateRle(const Bytes &input, std::uint64_t expected_size)
{
    if (input.size() % 2 != 0)
        return Error(ErrorCode::ParseError, "odd RLE payload");
    constexpr std::uint64_t kCounts = 0x00ff00ff00ff00ffull;
    constexpr std::uint64_t kLaneOnes = 0x0001000100010001ull;
    constexpr std::uint64_t kLaneHigh = 0x8000800080008000ull;
    const std::uint8_t *data = input.data();
    const std::size_t size = input.size();
    // A zero lane is the only one that borrows when 1 is subtracted;
    // the sum of four lanes lands in the top lane of counts * kLaneOnes.
    std::uint64_t zero = 0;
    std::uint64_t total = 0;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        const std::uint64_t counts = load(data + i) & kCounts;
        zero |= (counts - kLaneOnes) & kLaneHigh;
        total += (counts * kLaneOnes) >> 48;
    }
    if (const std::size_t rest = size - i) {
        // One to three pairs, zero-padded; the padded lanes sit above
        // them and are left out of the zero test.
        std::uint64_t word = 0;
        std::memcpy(&word, data + i, rest);
        const std::uint64_t counts = word & kCounts;
        zero |= (counts - kLaneOnes) & kLaneHigh &
                ((std::uint64_t{1} << (8 * rest)) - 1);
        total += (counts * kLaneOnes) >> 48;
    }
    if (zero != 0)
        return Error(ErrorCode::ParseError, "zero-length RLE run");
    if (total != expected_size)
        return Error(ErrorCode::ParseError, "RLE size mismatch");
    return Status::success();
}

/**
 * Apply pass: expand validated runs into the @p size bytes at @p out.
 * A run of at most 8 bytes is one 8-byte splat store; what it writes
 * past the run, the next runs overwrite. A longer run, or one within
 * 8 bytes of the end, uses memset.
 */
void
expandRle(const Bytes &input, std::uint8_t *out, std::size_t size)
{
    std::uint8_t *const end = out + size;
    const std::uint8_t *pair = input.data();
    const std::uint8_t *const last = pair + input.size();
    for (; pair != last; pair += 2) {
        const std::size_t run = pair[0];
        if (run <= 8 && end - out >= 8)
            store(out, kOnes * pair[1]);
        else
            std::memset(out, pair[1], run);
        out += run;
    }
}

/** Append one frame's stream header and @p payload to @p out. */
void
appendFrame(Bytes &out, FrameType type, std::uint32_t sequence,
            std::uint32_t width, std::uint32_t height,
            std::span<const std::uint8_t> payload)
{
    ByteWriter writer(out);
    writer.writeU16(kFrameMagic);
    writer.writeU8(static_cast<std::uint8_t>(type));
    writer.writeU32(sequence);
    writer.writeU32(width);
    writer.writeU32(height);
    writer.writeBytes(payload);
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
    render(sequence, out);
    return out;
}

void
SyntheticVideo::render(std::uint32_t sequence, RawFrame &out) const
{
    const std::uint32_t width = config_.width;
    out.width = width;
    out.height = config_.height;
    out.sequence = sequence;
    out.pixels.resize(static_cast<std::size_t>(width) * config_.height);

    // A banded gradient that drifts with time: smooth enough that
    // delta frames compress well, structured enough to detect
    // corruption anywhere in the pipeline. Pixel (x, y) is
    // (y / 8) * 16 + shift + x / 32, so each 32-pixel band of a row is
    // one value.
    const std::uint32_t shift =
        static_cast<std::uint32_t>((seed_ + sequence * 3) & 0xff);
    // Quasi-static film grain on every fourth pixel: keeps intra-frame
    // RLE runs short (realistic I-frame sizes) while changing slowly
    // (every 8 frames) so delta frames stay much smaller than I
    // frames. Pixel i gets the top 3 bits of (grain ^ i) * golden.
    const std::uint64_t grain =
        seed_ ^ (static_cast<std::uint64_t>(sequence / 8) << 32);
    std::uint8_t *row = out.pixels.data();
    for (std::uint32_t y = 0; y < config_.height; ++y, row += width) {
        std::uint8_t band = static_cast<std::uint8_t>((y / 8) * 16 + shift);
        std::uint32_t x = 0;
        for (; x + 32 <= width; x += 32, ++band) {
            const std::uint64_t splat = kOnes * band;
            store(row + x, splat);
            store(row + x + 8, splat);
            store(row + x + 16, splat);
            store(row + x + 24, splat);
        }
        std::memset(row + x, band, width - x);
        const std::uint64_t first = static_cast<std::uint64_t>(y) * width;
        for (x = 0; x < width; x += 4) {
            const std::uint64_t h = (grain ^ (first + x)) *
                                    0x9e3779b97f4a7c15ull;
            row[x] = static_cast<std::uint8_t>(row[x] + (h >> 61));
        }
    }
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

Result<MpegEncoder::Coded>
MpegEncoder::code(const RawFrame &frame)
{
    const std::size_t size =
        static_cast<std::size_t>(frame.width) * frame.height;
    if (frame.pixels.size() != size)
        return Error(ErrorCode::InvalidArgument, "frame size mismatch");

    FrameType type = frameTypeFor(frame.sequence);
    if (!hasReference_ || reference_.size() != size)
        type = FrameType::I;
    if (rle_.size() < 2 * size)
        rle_.resize(2 * size);
    const std::uint8_t *source = frame.pixels.data();
    if (type != FrameType::I) {
        delta_.resize(size);
        mapWords(source, reference_.data(), delta_.data(), size, subBytes);
        source = delta_.data();
    }
    const std::size_t coded = rleEncode(source, size, rle_.data());

    reference_.assign(frame.pixels.begin(), frame.pixels.end());
    hasReference_ = true;
    return Coded{type, coded};
}

Result<EncodedFrame>
MpegEncoder::encode(const RawFrame &frame)
{
    Result<Coded> coded = code(frame);
    if (!coded)
        return coded.error();
    EncodedFrame out;
    out.type = coded.value().type;
    out.sequence = frame.sequence;
    out.width = frame.width;
    out.height = frame.height;
    out.payload.assign(rle_.data(), rle_.data() + coded.value().size);
    return out;
}

Status
MpegEncoder::encodeTo(const RawFrame &frame, Bytes &out)
{
    Result<Coded> coded = code(frame);
    if (!coded)
        return coded.error();
    appendFrame(out, coded.value().type, frame.sequence, frame.width,
                frame.height, {rle_.data(), coded.value().size});
    return Status::success();
}

void
MpegDecoder::reset()
{
    frame_.pixels.clear(); // keeps the capacity for the next I frame
    hasReference_ = false;
}

Status
MpegDecoder::decode(const EncodedFrame &frame)
{
    const std::uint64_t expected =
        static_cast<std::uint64_t>(frame.width) * frame.height;
    const bool intra = frame.type == FrameType::I;
    Bytes &reference = frame_.pixels;
    if (!intra && (!hasReference_ || reference.size() != expected))
        return Error(ErrorCode::ParseError,
                     "delta frame without matching reference");
    Status valid = validateRle(frame.payload, expected);
    if (!valid)
        return valid;

    // Decode into the reference, which callers read in place through
    // frame(). A delta frame expands into scratch with stores only,
    // then one add pass applies it (adding run by run in place would
    // load bytes the previous run's store has not yet retired).
    if (intra) {
        reference.resize(expected);
        expandRle(frame.payload, reference.data(), expected);
    } else {
        delta_.resize(expected);
        expandRle(frame.payload, delta_.data(), expected);
        mapWords(reference.data(), delta_.data(), reference.data(),
                 expected, addBytes);
    }
    hasReference_ = true;
    frame_.width = frame.width;
    frame_.height = frame.height;
    frame_.sequence = frame.sequence;
    return Status::success();
}

Bytes
serializeFrame(const EncodedFrame &frame)
{
    Bytes out;
    out.reserve(kHeaderBytes + frame.payload.size());
    appendFrame(out, frame.type, frame.sequence, frame.width, frame.height,
                frame.payload);
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
    RawFrame frame;
    Bytes out;
    // Room for each frame's header and as many bytes as it has pixels
    // (the default movie codes to a fifth of that), so the movie is not
    // copied and faulted in again at every doubling. Pages never
    // written stay unmapped.
    out.reserve(static_cast<std::size_t>(frames) *
                (kHeaderBytes +
                 static_cast<std::size_t>(config.width) * config.height));
    for (std::uint32_t i = 0; i < frames; ++i) {
        source.render(i, frame);
        [[maybe_unused]] const Status encoded = encoder.encodeTo(frame, out);
        assert(encoded);
    }
    return out;
}

std::shared_ptr<const Bytes>
sharedMovie(const MpegConfig &config, std::uint32_t frames,
            std::uint64_t seed)
{
    struct Entry
    {
        MpegConfig config;
        std::uint32_t frames = 0;
        std::uint64_t seed = 0;
        std::shared_ptr<const Bytes> movie;
    };
    static std::mutex mutex;
    static Entry memo;

    // Encoding under the lock makes concurrent callers of one key wait
    // for the first one's movie instead of encoding it again.
    std::lock_guard<std::mutex> lock(mutex);
    if (!memo.movie || memo.config != config || memo.frames != frames ||
        memo.seed != seed) {
        memo = Entry{config, frames, seed,
                     std::make_shared<const Bytes>(
                         encodeMovie(config, frames, seed))};
    }
    return memo.movie;
}

} // namespace hydra::tivo
