/**
 * @file
 * On-disk page format for dbscore::storage.
 *
 * Every page in a page file is a fixed-size block that begins with a
 * PageHeader: magic, the page's own id, a type tag, the valid payload
 * length, and a 64-bit checksum over the entire page (header with the
 * checksum field zeroed, plus payload; see ComputePageChecksum). The
 * self-id catches reads routed to the wrong offset; the checksum
 * catches bit rot and torn writes — a page half-written at crash time
 * fails verification on the next read instead of silently yielding
 * garbage features.
 *
 * Layout (page size is configurable per file, default 4 KiB like the
 * Mini-DB exemplar):
 *
 *   +--------------------------+  offset 0
 *   | PageHeader (24 B)        |
 *   +--------------------------+  offset kPageHeaderSize
 *   | payload (page_size - 24) |
 *   +--------------------------+
 *
 * The header is 4-byte-aligned-friendly: payload starts at offset 24,
 * so float32 feature values stored in the payload can be viewed in
 * place by the zero-copy data plane (data/row_block.h).
 */
#ifndef DBSCORE_STORAGE_PAGE_H
#define DBSCORE_STORAGE_PAGE_H

#include <cstddef>
#include <cstdint>

namespace dbscore::storage {

/** First bytes of every page ("DBPG"). */
inline constexpr std::uint32_t kPageMagic = 0x44425047u;

/** Default page size; power of two, must exceed kPageHeaderSize. */
inline constexpr std::size_t kDefaultPageSize = 4096;

/** Smallest page size Pager accepts. */
inline constexpr std::size_t kMinPageSize = 256;

/** What a page holds. */
enum class PageType : std::uint16_t {
    kFree = 0,        ///< allocated but not yet assigned a role
    kSuperblock,      ///< page 0: file-wide metadata (pager-owned)
    kTableMeta,       ///< paged-table catalog (schema, counts, roots)
    kDirectory,       ///< chained list of page ids
    kFeatures,        ///< row-major float32 feature rows
    kLabels,          ///< float32 label column values
    kZoneMap,         ///< chained per-page min/max zone-map entries
    kFreeList,        ///< chained u32 ids of reclaimable pages
};

const char* PageTypeName(PageType type);

/**
 * Fixed header at the start of every page. Plain trivially-copyable
 * struct written byte-for-byte; files are host-endian (like the rest
 * of the repo's serialized artifacts).
 */
struct PageHeader {
    std::uint32_t magic = kPageMagic;
    std::uint32_t page_id = 0;
    std::uint16_t type = 0;
    std::uint16_t flags = 0;
    /** Valid payload bytes after the header. */
    std::uint32_t payload_bytes = 0;
    /** Checksum over the whole page with this field zeroed. */
    std::uint64_t checksum = 0;
};

inline constexpr std::size_t kPageHeaderSize = sizeof(PageHeader);
static_assert(kPageHeaderSize == 24, "header layout is part of the format");

/** Usable payload bytes for a given page size. */
inline constexpr std::size_t
PagePayloadBytes(std::size_t page_size)
{
    return page_size - kPageHeaderSize;
}

/**
 * 64-bit checksum over the whole page, with the header's checksum
 * field treated as zero: the XXH64 core loop, four multiply-rotate
 * lanes over 32-byte stripes, so a 4 KiB page costs about half a
 * microsecond. It catches torn writes and stray bit flips (an
 * integrity check, not crypto). The checksum is part of the file
 * format: changing it bumps kPageFormatVersion (pager.h), and files
 * of another version are refused on open.
 * @p page_size must be at least 32 bytes (one stripe).
 */
std::uint64_t ComputePageChecksum(const std::uint8_t* page,
                                  std::size_t page_size);

/** Header view of a raw page buffer. */
inline PageHeader*
HeaderOf(std::uint8_t* page)
{
    return reinterpret_cast<PageHeader*>(page);
}

inline const PageHeader*
HeaderOf(const std::uint8_t* page)
{
    return reinterpret_cast<const PageHeader*>(page);
}

/** Payload start of a raw page buffer. */
inline std::uint8_t*
PayloadOf(std::uint8_t* page)
{
    return page + kPageHeaderSize;
}

inline const std::uint8_t*
PayloadOf(const std::uint8_t* page)
{
    return page + kPageHeaderSize;
}

/** Stamps magic/id/type on @p page (checksum left for the writer). */
void InitPage(std::uint8_t* page, std::size_t page_size,
              std::uint32_t page_id, PageType type);

}  // namespace dbscore::storage

#endif  // DBSCORE_STORAGE_PAGE_H
