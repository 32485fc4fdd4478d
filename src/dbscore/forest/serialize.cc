#include "dbscore/forest/serialize.h"

#include <cstring>

#include "dbscore/common/error.h"

namespace dbscore {

void
ByteWriter::PutU8(std::uint8_t v)
{
    bytes_.push_back(v);
}

void
ByteWriter::PutU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void
ByteWriter::PutU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void
ByteWriter::PutI32(std::int32_t v)
{
    PutU32(static_cast<std::uint32_t>(v));
}

void
ByteWriter::PutF32(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU32(bits);
}

void
ByteWriter::PutBytes(const void* data, std::size_t size)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
}

void
ByteReader::Require(std::size_t n) const
{
    if (pos_ + n > bytes_.size()) {
        throw ParseError("blob: truncated input");
    }
}

std::uint8_t
ByteReader::GetU8()
{
    Require(1);
    return bytes_[pos_++];
}

std::uint32_t
ByteReader::GetU32()
{
    Require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    }
    return v;
}

std::uint64_t
ByteReader::GetU64()
{
    Require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return v;
}

std::int32_t
ByteReader::GetI32()
{
    return static_cast<std::int32_t>(GetU32());
}

float
ByteReader::GetF32()
{
    std::uint32_t bits = GetU32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
ByteReader::GetBytes(void* out, std::size_t size)
{
    Require(size);
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
}

}  // namespace dbscore
