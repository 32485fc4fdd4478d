#include "dbscore/common/csv.h"

#include <cstdlib>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"

namespace dbscore {

void
ForEachCsvRecord(std::istream& in, const CsvRecordCallback& callback)
{
    std::vector<std::string> record;
    std::string field;
    bool in_quotes = false;
    bool field_started = false;
    // A '"' seen inside a quoted field: either the first half of a
    // doubled quote or the closing quote — decided by the *next*
    // character, which may live in the next chunk.
    bool quote_pending = false;

    auto end_field = [&] {
        record.push_back(std::move(field));
        field.clear();
        field_started = false;
    };
    auto end_record = [&] {
        end_field();
        // Skip completely empty records (blank lines).
        if (!(record.size() == 1 && record[0].empty())) {
            callback(record);
        }
        record.clear();
    };

    char buf[64 * 1024];
    for (;;) {
        in.read(buf, sizeof(buf));
        const std::streamsize got = in.gcount();
        if (got <= 0) {
            break;
        }
        for (std::streamsize i = 0; i < got; ++i) {
            const char c = buf[i];
            if (quote_pending) {
                quote_pending = false;
                if (c == '"') {
                    field.push_back('"');
                    continue;
                }
                in_quotes = false;  // it was the closing quote
            }
            if (in_quotes) {
                if (c == '"') {
                    quote_pending = true;
                } else {
                    field.push_back(c);
                }
                continue;
            }
            switch (c) {
              case '"':
                if (!field_started) {
                    in_quotes = true;
                    field_started = true;
                } else {
                    field.push_back(c);
                }
                break;
              case ',':
                end_field();
                break;
              case '\r':
                break;  // handled with the following \n
              case '\n':
                end_record();
                break;
              default:
                field.push_back(c);
                field_started = true;
                break;
            }
        }
    }
    if (quote_pending) {
        in_quotes = false;  // closing quote was the last byte
    }
    if (in_quotes) {
        throw ParseError("csv: unterminated quoted field");
    }
    if (field_started || !field.empty() || !record.empty()) {
        end_record();
    }
}

CsvDocument
ReadCsv(std::istream& in, bool has_header)
{
    CsvDocument doc;
    bool saw_header = !has_header;
    ForEachCsvRecord(in, [&](std::vector<std::string>& record) {
        if (!saw_header) {
            doc.header = std::move(record);
            saw_header = true;
        } else {
            doc.rows.push_back(std::move(record));
        }
    });
    return doc;
}

float
ParseCsvNumber(const std::string& cell)
{
    // The view points into the NUL-terminated cell, and strtof stops at
    // the trailing whitespace the view leaves out.
    const std::string_view trimmed = TrimView(cell);
    char* end = nullptr;
    const float value = std::strtof(trimmed.data(), &end);
    if (trimmed.empty() || end != trimmed.data() + trimmed.size()) {
        throw ParseError("cell '" + cell + "' is not numeric");
    }
    return value;
}

void
WriteCsvRow(std::ostream& out, const std::vector<std::string>& cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) {
            out << ',';
        }
        const std::string& cell = cells[i];
        bool needs_quotes = cell.find_first_of(",\"\n\r") != std::string::npos;
        if (!needs_quotes) {
            out << cell;
            continue;
        }
        out << '"';
        for (char c : cell) {
            if (c == '"') {
                out << "\"\"";
            } else {
                out << c;
            }
        }
        out << '"';
    }
    out << '\n';
}

}  // namespace dbscore
