#include "dbscore/forest/serialize.h"

#include <cstring>

#include "dbscore/common/error.h"

namespace dbscore {

namespace {

constexpr std::uint32_t kMagic = 0x46534244;  // "DBSF"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxReasonableCount = 1u << 28;

}  // namespace

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
ByteWriter::PutF64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
}

void
ByteWriter::PutString(const std::string& s)
{
    PutU32(static_cast<std::uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
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

double
ByteReader::GetF64()
{
    std::uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteReader::GetString()
{
    std::uint32_t size = GetU32();
    if (size > kMaxReasonableCount) {
        throw ParseError("blob: implausible string length");
    }
    Require(size);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), size);
    pos_ += size;
    return s;
}

void
ByteReader::GetBytes(void* out, std::size_t size)
{
    Require(size);
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
}

std::vector<std::uint8_t>
SerializeForest(const RandomForest& forest)
{
    ByteWriter w;
    w.PutU32(kMagic);
    w.PutU32(kVersion);
    w.PutU8(forest.task() == Task::kClassification ? 0 : 1);
    w.PutU32(static_cast<std::uint32_t>(forest.num_features()));
    w.PutU32(static_cast<std::uint32_t>(forest.num_classes()));
    w.PutU32(static_cast<std::uint32_t>(forest.NumTrees()));
    for (const auto& tree : forest.trees()) {
        const auto n = static_cast<std::uint32_t>(tree.NumNodes());
        w.PutU32(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            auto node = static_cast<std::int32_t>(i);
            w.PutI32(tree.Feature(node));
            w.PutF32(tree.Threshold(node));
            w.PutI32(tree.Left(node));
            w.PutI32(tree.Right(node));
            w.PutF32(tree.LeafValue(node));
        }
    }
    return w.Take();
}

RandomForest
DeserializeForest(std::span<const std::uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.GetU32() != kMagic) {
        throw ParseError("forest blob: bad magic");
    }
    std::uint32_t version = r.GetU32();
    if (version != kVersion) {
        throw ParseError("forest blob: unsupported version");
    }
    std::uint8_t task_byte = r.GetU8();
    if (task_byte > 1) {
        throw ParseError("forest blob: bad task byte");
    }
    Task task = task_byte == 0 ? Task::kClassification : Task::kRegression;
    std::uint32_t num_features = r.GetU32();
    std::uint32_t num_classes = r.GetU32();
    std::uint32_t num_trees = r.GetU32();
    if (num_features == 0 || num_features > kMaxReasonableCount ||
        num_trees == 0 || num_trees > kMaxReasonableCount) {
        throw ParseError("forest blob: implausible dimensions");
    }
    if (task == Task::kClassification && num_classes < 2) {
        throw ParseError("forest blob: bad class count");
    }
    if (task == Task::kRegression && num_classes != 0) {
        throw ParseError("forest blob: regression with classes");
    }

    RandomForest forest(task, num_features,
                        static_cast<int>(num_classes));
    for (std::uint32_t t = 0; t < num_trees; ++t) {
        std::uint32_t n = r.GetU32();
        if (n == 0 || n > kMaxReasonableCount) {
            throw ParseError("forest blob: implausible node count");
        }
        DecisionTree tree;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::int32_t feature = r.GetI32();
            float threshold = r.GetF32();
            std::int32_t left = r.GetI32();
            std::int32_t right = r.GetI32();
            float value = r.GetF32();
            if (feature == kLeafFeature) {
                if (task == Task::kClassification &&
                    !LeafIsClassId(value, static_cast<int>(num_classes))) {
                    throw ParseError("forest blob: leaf is not a class id");
                }
                tree.AddLeafNode(value);
            } else {
                if (feature < 0) {
                    throw ParseError("forest blob: bad feature id");
                }
                std::int32_t node = tree.AddDecisionNode(feature, threshold);
                // Children validated by tree.Validate() below; record raw.
                tree.SetChildren(node, left, right);
            }
        }
        tree.Validate(num_features);
        forest.AddTree(std::move(tree));
    }
    if (!r.AtEnd()) {
        throw ParseError("forest blob: trailing bytes");
    }
    return forest;
}

}  // namespace dbscore
