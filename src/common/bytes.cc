#include "common/bytes.hh"

#include <array>
#include <cstring>

namespace hydra {

void
ByteWriter::writeU8(std::uint8_t value)
{
    out_.push_back(value);
}

void
ByteWriter::writeU16(std::uint16_t value)
{
    out_.push_back(static_cast<std::uint8_t>(value));
    out_.push_back(static_cast<std::uint8_t>(value >> 8));
}

namespace {

/** Append @p value little-endian: one resize, then indexed stores. */
template <typename T>
void
appendLittleEndian(Bytes &out, T value)
{
    const std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::uint8_t *dst = out.data() + at;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        dst[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

} // namespace

void
ByteWriter::writeU32(std::uint32_t value)
{
    appendLittleEndian(out_, value);
}

void
ByteWriter::writeU64(std::uint64_t value)
{
    appendLittleEndian(out_, value);
}

void
ByteWriter::writeBytes(std::span<const std::uint8_t> value)
{
    writeU32(static_cast<std::uint32_t>(value.size()));
    out_.insert(out_.end(), value.begin(), value.end());
}

void
ByteWriter::writeString(std::string_view value)
{
    writeU32(static_cast<std::uint32_t>(value.size()));
    out_.insert(out_.end(), value.begin(), value.end());
}

Result<std::uint8_t>
ByteReader::readU8()
{
    if (!need(1))
        return Error(ErrorCode::OutOfRange, "buffer underrun");
    return in_[pos_++];
}

Result<std::uint32_t>
ByteReader::readU32()
{
    if (!need(4))
        return Error(ErrorCode::OutOfRange, "buffer underrun");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(in_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return value;
}

Result<std::uint64_t>
ByteReader::readU64()
{
    if (!need(8))
        return Error(ErrorCode::OutOfRange, "buffer underrun");
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(in_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return value;
}

Result<Bytes>
ByteReader::readBytes()
{
    auto view = readBytesView();
    if (!view)
        return view.error();
    return Bytes(view.value().begin(), view.value().end());
}

Result<std::span<const std::uint8_t>>
ByteReader::readBytesView()
{
    auto len = readU32();
    if (!len)
        return len.error();
    if (!need(len.value()))
        return Error(ErrorCode::OutOfRange, "buffer underrun");
    const std::span<const std::uint8_t> out(in_ + pos_, len.value());
    pos_ += len.value();
    return out;
}

Result<std::string>
ByteReader::readString()
{
    auto len = readU32();
    if (!len)
        return len.error();
    if (!need(len.value()))
        return Error(ErrorCode::OutOfRange, "buffer underrun");
    std::string out(reinterpret_cast<const char *>(in_) + pos_,
                    len.value());
    pos_ += len.value();
    return out;
}

namespace {

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    static const auto table = makeCrcTable();
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::uint32_t
crc32(const Bytes &data)
{
    return crc32(data.data(), data.size());
}

} // namespace hydra
