/**
 * @file
 * MpegLite: a small, lossless MPEG-like codec for the TiVoPC case
 * study. Real MPEG streams are unavailable offline, so MpegLite
 * keeps the structural properties the paper's pipeline exercises —
 * a GOP of I/P/B frames (I: intra-coded full frame; P/B: delta
 * against a reference) with run-length-coded payloads framed by
 * per-frame headers — while remaining exactly decodable so tests
 * can verify the Streamer/Decoder/Display chain end to end.
 */

#ifndef HYDRA_TIVO_MPEG_HH
#define HYDRA_TIVO_MPEG_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hh"
#include "common/payload.hh"
#include "common/result.hh"

namespace hydra::tivo {

/** MPEG frame types (paper Section 6.2). */
enum class FrameType : std::uint8_t { I = 1, P = 2, B = 3 };

/** One decoded (raw) video frame. */
struct RawFrame
{
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::uint32_t sequence = 0;
    Bytes pixels; ///< width*height luma bytes

    std::size_t bytes() const { return pixels.size(); }
};

/** One encoded frame as it appears in the stream. */
struct EncodedFrame
{
    FrameType type = FrameType::I;
    std::uint32_t sequence = 0;
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    Bytes payload; ///< RLE(-delta) coded pixel data
};

/** Codec configuration. */
struct MpegConfig
{
    std::uint32_t width = 160;
    std::uint32_t height = 120;
    /** GOP pattern length: one I frame per gopLength frames. */
    std::uint32_t gopLength = 9;
    /** Within a GOP, every bFrequency-th frame is P, the rest B. */
    std::uint32_t pSpacing = 3;

    bool operator==(const MpegConfig &) const = default;
};

/** Deterministic synthetic video source (moving gradient). */
class SyntheticVideo
{
  public:
    explicit SyntheticVideo(MpegConfig config, std::uint64_t seed = 42);

    /** Generate the raw frame at index @p sequence. */
    RawFrame frame(std::uint32_t sequence) const;

    /** Generate frame @p sequence into @p out, reusing its buffer. */
    void render(std::uint32_t sequence, RawFrame &out) const;

  private:
    MpegConfig config_;
    std::uint64_t seed_;
};

/** Encoder: raw frames in GOP order to encoded frames. */
class MpegEncoder
{
  public:
    explicit MpegEncoder(MpegConfig config);

    /** Encode the next frame (state: reference frame for deltas). */
    Result<EncodedFrame> encode(const RawFrame &frame);

    /**
     * Encode the next frame like encode() and append it, header and
     * payload, to @p out: the bytes serializeFrame(encode(frame))
     * would give, without the intermediate frame.
     */
    Status encodeTo(const RawFrame &frame, Bytes &out);

    /** Frame type the GOP assigns to @p sequence. */
    FrameType frameTypeFor(std::uint32_t sequence) const;

    void reset();

  private:
    /** A coded frame: its type and payload length (payload in rle_). */
    struct Coded
    {
        FrameType type;
        std::size_t size;
    };

    /** Code @p frame against the reference into rle_; then adopt it. */
    Result<Coded> code(const RawFrame &frame);

    MpegConfig config_;
    Bytes reference_;
    bool hasReference_ = false;
    /** Per-frame scratch, grown to the largest frame and reused. */
    Bytes delta_;
    Bytes rle_;
};

/** Decoder: encoded frames back to raw frames (exact). */
class MpegDecoder
{
  public:
    MpegDecoder() = default;

    /**
     * Decode one frame into frame(). P/B frames require the reference
     * from a previously decoded frame; decoding an I frame resets
     * state. The payload is validated before anything is allocated or
     * written, so a rejected frame leaves frame() untouched.
     */
    Status decode(const EncodedFrame &frame);

    /**
     * The last decoded frame. Its pixels are the reference the next
     * delta frame applies to, so they are valid (and unchanged) until
     * the next decode() or reset(); copy them to keep them longer.
     */
    const RawFrame &frame() const { return frame_; }

    void reset();

  private:
    RawFrame frame_;
    bool hasReference_ = false;
    /** A delta frame's expanded runs, added to frame_ in one pass. */
    Bytes delta_;
};

/** Serialize an encoded frame with its stream header. */
Bytes serializeFrame(const EncodedFrame &frame);

/**
 * Largest width*height a stream header may declare (4096 x 4096).
 * With the RLE bound (at most one 2-byte run per pixel) this caps a
 * header's payload length, so one corrupted length field cannot make
 * the assembler wait for megabytes that will never arrive.
 */
constexpr std::uint64_t kMaxFramePixels = 4096ull * 4096ull;

/**
 * Incremental stream parser: feed arbitrary byte chunks (the paper
 * streams 1 kB chunks that ignore frame boundaries) and retrieve
 * complete frames as they form.
 */
class StreamAssembler
{
  public:
    /** Append a chunk of stream bytes. */
    void feed(const std::uint8_t *data, std::size_t size);
    void feed(const Bytes &chunk) { feed(chunk.data(), chunk.size()); }
    void feed(const Payload &chunk) { feed(chunk.data(), chunk.size()); }

    /**
     * Pop the next complete frame, if any. A header whose payload
     * length is odd or above 2 * width * height, or whose width *
     * height is above kMaxFramePixels, cannot be a valid frame: the
     * assembler skips one byte and resynchronizes on the next magic.
     */
    Result<EncodedFrame> nextFrame();

    /** Bytes buffered but not yet consumed. */
    std::size_t bufferedBytes() const { return buffer_.size() - pos_; }

  private:
    Bytes buffer_;
    std::size_t pos_ = 0;
};

/** Encode a whole movie to a byte stream (for NAS seeding). */
Bytes encodeMovie(const MpegConfig &config, std::uint32_t frames,
                  std::uint64_t seed = 42);

/**
 * The bytes encodeMovie(config, frames, seed) gives, encoded once and
 * shared. A process-wide memo holds one entry, the last key asked
 * for, behind a mutex: while the key repeats, every caller gets the
 * same immutable buffer; a new key encodes its movie and replaces the
 * entry. Buffers already handed out stay valid either way.
 */
std::shared_ptr<const Bytes> sharedMovie(const MpegConfig &config,
                                         std::uint32_t frames,
                                         std::uint64_t seed = 42);

} // namespace hydra::tivo

#endif // HYDRA_TIVO_MPEG_HH
