/**
 * @file
 * Little-endian byte buffers for model blobs.
 *
 * The DBMS stores every model as the exchange ensemble's blob
 * (TreeEnsemble::Serialize in onnx_like.h): an opaque VARBINARY that
 * model pre-processing deserializes. ByteWriter and ByteReader are the
 * bounds-checked primitives that blob is written and parsed with.
 */
#ifndef DBSCORE_FOREST_SERIALIZE_H
#define DBSCORE_FOREST_SERIALIZE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dbscore {

/** Append-only little-endian byte buffer writer. */
class ByteWriter {
 public:
    void PutU8(std::uint8_t v);
    void PutU32(std::uint32_t v);
    void PutU64(std::uint64_t v);
    void PutI32(std::int32_t v);
    void PutF32(float v);
    void PutBytes(const void* data, std::size_t size);

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian reader. @throws ParseError on overrun. */
class ByteReader {
 public:
    explicit ByteReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes) {}

    std::uint8_t GetU8();
    std::uint32_t GetU32();
    std::uint64_t GetU64();
    std::int32_t GetI32();
    float GetF32();
    void GetBytes(void* out, std::size_t size);

    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
    void Require(std::size_t n) const;

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

}  // namespace dbscore

#endif  // DBSCORE_FOREST_SERIALIZE_H
