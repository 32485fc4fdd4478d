#include "dbscore/storage/page.h"

#include <cstring>

#include "dbscore/common/error.h"

namespace dbscore::storage {

const char*
PageTypeName(PageType type)
{
    switch (type) {
    case PageType::kFree: return "free";
    case PageType::kSuperblock: return "superblock";
    case PageType::kTableMeta: return "table-meta";
    case PageType::kDirectory: return "directory";
    case PageType::kFeatures: return "features";
    case PageType::kLabels: return "labels";
    case PageType::kZoneMap: return "zone-map";
    case PageType::kFreeList: return "free-list";
    }
    return "?";
}

namespace {

// The XXH64 core: four independent 64-bit multiply-rotate lanes over
// 32-byte stripes, merged and avalanched at the end. Plain integer
// arithmetic, so it needs no CPU dispatch and no tables, and the four
// lanes keep four multiplies in flight per stripe.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;
constexpr std::size_t kStripe = 32;

/** Byte offset of PageHeader::checksum: the third lane of stripe 0. */
constexpr std::size_t kChecksumOffset = kPageHeaderSize - sizeof(std::uint64_t);
static_assert(kChecksumOffset == 2 * sizeof(std::uint64_t),
              "the checksum field must fill lane 2 of the first stripe");

inline std::uint64_t
Rotl(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline std::uint64_t
Load64(const std::uint8_t* p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline std::uint64_t
Round(std::uint64_t acc, std::uint64_t input)
{
    return Rotl(acc + input * kPrime2, 31) * kPrime1;
}

inline std::uint64_t
Merge(std::uint64_t hash, std::uint64_t lane)
{
    return (hash ^ Round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t
ComputePageChecksum(const std::uint8_t* page, std::size_t page_size)
{
    DBS_ASSERT_MSG(page_size >= kStripe, "a page holds at least one stripe");
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    // Stripe 0 with the checksum field read as zero.
    v1 = Round(v1, Load64(page));
    v2 = Round(v2, Load64(page + 8));
    v3 = Round(v3, 0);
    v4 = Round(v4, Load64(page + 24));
    std::size_t i = kStripe;
    for (; i + kStripe <= page_size; i += kStripe) {
        v1 = Round(v1, Load64(page + i));
        v2 = Round(v2, Load64(page + i + 8));
        v3 = Round(v3, Load64(page + i + 16));
        v4 = Round(v4, Load64(page + i + 24));
    }
    std::uint64_t h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = Merge(Merge(Merge(Merge(h, v1), v2), v3), v4);
    h += page_size;
    // Tails of page sizes that are not a multiple of the stripe.
    for (; i + 8 <= page_size; i += 8) {
        h = Rotl(h ^ Round(0, Load64(page + i)), 27) * kPrime1 + kPrime4;
    }
    if (i + 4 <= page_size) {
        std::uint32_t word;
        std::memcpy(&word, page + i, sizeof(word));
        h = Rotl(h ^ (word * kPrime1), 23) * kPrime2 + kPrime3;
        i += 4;
    }
    for (; i < page_size; ++i) {
        h = Rotl(h ^ (page[i] * kPrime5), 11) * kPrime1;
    }
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

void
InitPage(std::uint8_t* page, std::size_t page_size, std::uint32_t page_id,
         PageType type)
{
    std::memset(page, 0, page_size);
    PageHeader* header = HeaderOf(page);
    header->magic = kPageMagic;
    header->page_id = page_id;
    header->type = static_cast<std::uint16_t>(type);
    header->flags = 0;
    header->payload_bytes = 0;
    header->checksum = 0;
}

}  // namespace dbscore::storage
