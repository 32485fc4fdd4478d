#include "dbscore/dbms/value.h"

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"

namespace dbscore {

const char*
ColumnTypeName(ColumnType type)
{
    switch (type) {
      case ColumnType::kInt64: return "INT";
      case ColumnType::kDouble: return "FLOAT";
      case ColumnType::kString: return "VARCHAR";
      case ColumnType::kBlob: return "VARBINARY";
    }
    return "?";
}

ColumnType
TypeOf(const Value& value)
{
    switch (value.index()) {
      case 0: return ColumnType::kInt64;
      case 1: return ColumnType::kDouble;
      case 2: return ColumnType::kString;
      default: return ColumnType::kBlob;
    }
}

std::string
ValueToString(const Value& value)
{
    switch (TypeOf(value)) {
      case ColumnType::kInt64:
        return std::to_string(std::get<std::int64_t>(value));
      case ColumnType::kDouble:
        return StrFormat("%g", std::get<double>(value));
      case ColumnType::kString:
        return std::get<std::string>(value);
      case ColumnType::kBlob:
        return StrFormat(
            "<%zu bytes>",
            std::get<std::vector<std::uint8_t>>(value).size());
    }
    return "?";
}

double
ValueAsDouble(const Value& value)
{
    switch (TypeOf(value)) {
      case ColumnType::kInt64:
        return static_cast<double>(std::get<std::int64_t>(value));
      case ColumnType::kDouble:
        return std::get<double>(value);
      default:
        throw InvalidArgument("value: not numeric");
    }
}

int
CompareValues(const Value& a, const Value& b)
{
    ColumnType ta = TypeOf(a);
    ColumnType tb = TypeOf(b);
    bool numeric_a = ta == ColumnType::kInt64 || ta == ColumnType::kDouble;
    bool numeric_b = tb == ColumnType::kInt64 || tb == ColumnType::kDouble;
    if (numeric_a && numeric_b) {
        double da = ValueAsDouble(a);
        double db = ValueAsDouble(b);
        if (da < db) {
            return -1;
        }
        return da > db ? 1 : 0;
    }
    if (ta == ColumnType::kString && tb == ColumnType::kString) {
        return std::get<std::string>(a).compare(std::get<std::string>(b));
    }
    throw InvalidArgument("value: incomparable types");
}

}  // namespace dbscore
