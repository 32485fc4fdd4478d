/**
 * @file
 * Minimal CSV reading and writing (RFC-4180-style quoting).
 *
 * Used to load user datasets and to dump bench series for plotting.
 */
#ifndef DBSCORE_COMMON_CSV_H
#define DBSCORE_COMMON_CSV_H

#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace dbscore {

/** A parsed CSV document: header row plus data rows of strings. */
struct CsvDocument {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/**
 * Receives one parsed record. The cells vector is reused between
 * callbacks — move individual cells out or copy, but do not keep a
 * reference to the vector itself.
 */
using CsvRecordCallback = std::function<void(std::vector<std::string>&)>;

/**
 * Streams CSV records from @p in, invoking @p callback once per
 * record. Reads the stream in fixed-size chunks — memory use is one
 * record plus the chunk buffer, independent of file size — which is
 * what lets bulk loaders ingest files larger than RAM straight into
 * the paged store. Supports quoted fields with embedded commas,
 * doubled quotes, and both \n and \r\n line endings; blank lines are
 * skipped.
 *
 * @throws ParseError on an unterminated quoted field
 */
void ForEachCsvRecord(std::istream& in, const CsvRecordCallback& callback);

/**
 * Parses CSV from a stream into memory (built on ForEachCsvRecord).
 *
 * @param in stream to read
 * @param has_header when true the first record becomes .header
 * @throws ParseError on unterminated quotes
 */
CsvDocument ReadCsv(std::istream& in, bool has_header = true);

/**
 * Parses one numeric cell: surrounding whitespace is trimmed, and
 * strtof must consume all that is left. Both CSV loaders read their
 * cells through this one parser.
 * @throws ParseError naming the cell otherwise (an empty cell too)
 */
float ParseCsvNumber(const std::string& cell);

/** Writes one CSV record with quoting where needed. */
void WriteCsvRow(std::ostream& out, const std::vector<std::string>& cells);

}  // namespace dbscore

#endif  // DBSCORE_COMMON_CSV_H
