/**
 * @file
 * Byte buffers and the wire serialization used by Call marshaling
 * (paper Section 3.1) and the network substrate.
 *
 * Encoding is little-endian, length-prefixed for variable payloads.
 */

#ifndef HYDRA_COMMON_BYTES_HH
#define HYDRA_COMMON_BYTES_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hh"

namespace hydra {

using Bytes = std::vector<std::uint8_t>;

/** Appends primitive values to a byte buffer in wire order. */
class ByteWriter
{
  public:
    explicit ByteWriter(Bytes &out) : out_(out) {}

    void writeU8(std::uint8_t value);
    void writeU16(std::uint16_t value);
    void writeU32(std::uint32_t value);
    void writeU64(std::uint64_t value);
    /** Length-prefixed (u32) byte string. */
    void writeBytes(std::span<const std::uint8_t> value);
    /** Length-prefixed (u32) UTF-8 string. */
    void writeString(std::string_view value);

    std::size_t size() const { return out_.size(); }

  private:
    Bytes &out_;
};

/** Consumes primitive values from a byte range; fails on underrun. */
class ByteReader
{
  public:
    explicit ByteReader(const Bytes &in)
        : in_(in.data()), size_(in.size())
    {
    }

    /** Read from any contiguous range (e.g. a Payload's view). */
    ByteReader(const std::uint8_t *data, std::size_t size)
        : in_(data), size_(size)
    {
    }

    Result<std::uint8_t> readU8();
    Result<std::uint32_t> readU32();
    Result<std::uint64_t> readU64();
    Result<Bytes> readBytes();
    /** Length-prefixed (u32) byte string as a view into the input. */
    Result<std::span<const std::uint8_t>> readBytesView();
    Result<std::string> readString();

    std::size_t remaining() const { return size_ - pos_; }
    bool exhausted() const { return remaining() == 0; }

  private:
    bool need(std::size_t n) const { return remaining() >= n; }

    const std::uint8_t *in_ = nullptr;
    std::size_t size_ = 0;
    std::size_t pos_ = 0;
};

/** CRC32 (IEEE 802.3 polynomial) over a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);
std::uint32_t crc32(const Bytes &data);

} // namespace hydra

#endif // HYDRA_COMMON_BYTES_HH
