/**
 * @file
 * SQL value and column types for the embedded mini-DBMS.
 *
 * The paper's pipeline stores both the scoring data and the serialized
 * models inside SQL Server tables; our substitute supports the column
 * types that flow needs: integers, doubles, strings, and VARBINARY blobs.
 */
#ifndef DBSCORE_DBMS_VALUE_H
#define DBSCORE_DBMS_VALUE_H

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace dbscore {

/** Supported column types. */
enum class ColumnType {
    kInt64,
    kDouble,
    kString,
    kBlob,  ///< VARBINARY — serialized models
};

/** Returns "INT", "FLOAT", "VARCHAR", or "VARBINARY". */
const char* ColumnTypeName(ColumnType type);

/** A single SQL value. */
using Value = std::variant<std::int64_t, double, std::string,
                           std::vector<std::uint8_t>>;

/** Runtime type of @p value. */
ColumnType TypeOf(const Value& value);

/** Renders a value for result display (blobs render as "<N bytes>"). */
std::string ValueToString(const Value& value);

/**
 * Numeric coercion: int64 or double values as double.
 * @throws InvalidArgument for strings/blobs.
 */
double ValueAsDouble(const Value& value);

/**
 * SQL comparison between two values. Numerics compare numerically
 * (int vs double allowed); strings lexicographically.
 *
 * @return negative/zero/positive like strcmp
 * @throws InvalidArgument for blob comparisons or type mixes
 */
int CompareValues(const Value& a, const Value& b);

}  // namespace dbscore

#endif  // DBSCORE_DBMS_VALUE_H
