#include "dbscore/dbms/table.h"

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"

namespace dbscore {

Table::Table(std::string name, std::vector<ColumnDef> schema)
    : name_(std::move(name)), schema_(std::move(schema))
{
    if (schema_.empty()) {
        throw InvalidArgument("table: needs at least one column");
    }
    columns_.resize(schema_.size());
}

Table
Table::FromPagedStore(std::string name,
                      std::shared_ptr<storage::PagedTable> store)
{
    DBS_ASSERT(store != nullptr);
    std::vector<ColumnDef> schema;
    schema.reserve(store->columns().size());
    for (const std::string& col : store->columns()) {
        schema.push_back({col, ColumnType::kDouble});
    }
    Table table(std::move(name), std::move(schema));
    table.columns_.clear();  // rows live in the page file
    table.store_ = std::move(store);
    return table;
}

std::size_t
Table::ColumnIndex(const std::string& column_name) const
{
    for (std::size_t i = 0; i < schema_.size(); ++i) {
        if (EqualsIgnoreCase(schema_[i].name, column_name)) {
            return i;
        }
    }
    throw NotFound("table " + name_ + ": no column '" + column_name + "'");
}

void
Table::AppendRow(std::vector<Value> row)
{
    if (row.size() != schema_.size()) {
        throw InvalidArgument("table " + name_ + ": row arity mismatch");
    }
    if (paged()) {
        // Split the row into features + label and write through the
        // buffer pool; zone maps update as part of the append.
        const std::size_t label_col = store_->label_col();
        std::vector<float> features;
        features.reserve(store_->num_feature_cols());
        float label = 0.0F;
        for (std::size_t i = 0; i < row.size(); ++i) {
            const float v = static_cast<float>(ValueAsDouble(row[i]));
            if (i == label_col) {
                label = v;
            } else {
                features.push_back(v);
            }
        }
        store_->AppendRow(features.data(), features.size(), label);
        return;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
        ColumnType expected = schema_[i].type;
        ColumnType got = TypeOf(row[i]);
        if (got == expected) {
            continue;
        }
        // Integer literals coerce into FLOAT columns.
        if (expected == ColumnType::kDouble && got == ColumnType::kInt64) {
            row[i] = static_cast<double>(std::get<std::int64_t>(row[i]));
            continue;
        }
        throw InvalidArgument(
            StrFormat("table %s: column %s expects %s, got %s",
                      name_.c_str(), schema_[i].name.c_str(),
                      ColumnTypeName(expected), ColumnTypeName(got)));
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
        columns_[i].push_back(std::move(row[i]));
    }
    ++num_rows_;
    // Drop (don't mutate) the cached materialization; live views keep
    // the old block's storage alive through their refcounts.
    features_ = RowBlock();
}

const Value&
Table::At(std::size_t row, std::size_t col) const
{
    if (paged()) {
        throw InvalidArgument("table " + name_ +
                              ": At() on a paged table — use FloatAt()");
    }
    DBS_ASSERT(row < num_rows_ && col < schema_.size());
    return columns_[col][row];
}

float
Table::FloatAt(std::size_t row, std::size_t col) const
{
    if (paged()) {
        const std::size_t label_col = store_->label_col();
        if (col == label_col) {
            return store_->Label(row);
        }
        return store_->Feature(row, col - (col > label_col ? 1 : 0));
    }
    return static_cast<float>(ValueAsDouble(At(row, col)));
}

const std::vector<Value>&
Table::Column(std::size_t col) const
{
    if (paged()) {
        throw InvalidArgument(
            "table " + name_ +
            ": Column() on a paged table — stream with store()->Scan()");
    }
    DBS_ASSERT(col < schema_.size());
    return columns_[col];
}

std::size_t
Table::LabelColumnIndex() const
{
    if (paged()) {
        return store_->label_col();
    }
    for (std::size_t c = 0; c < schema_.size(); ++c) {
        if (schema_[c].name == "label") {
            return c;
        }
    }
    return schema_.size();
}

std::size_t
Table::NumFeatureColumns() const
{
    return schema_.size() -
           (LabelColumnIndex() < schema_.size() ? 1 : 0);
}

const RowBlock&
Table::MaterializeFeatures() const
{
    if (paged()) {
        throw InvalidArgument(
            "table " + name_ +
            ": MaterializeFeatures() on a paged table — stream with "
            "store()->Scan()");
    }
    const std::size_t num_features = NumFeatureColumns();
    if (!features_.empty() || num_rows_ == 0 || num_features == 0) {
        return features_;
    }
    const std::size_t label_col = LabelColumnIndex();
    std::vector<float> values(num_rows_ * num_features);
    std::size_t out_col = 0;
    for (std::size_t c = 0; c < schema_.size(); ++c) {
        if (c == label_col) {
            continue;
        }
        const std::vector<Value>& column = columns_[c];
        float* out = values.data() + out_col;
        for (std::size_t r = 0; r < num_rows_; ++r) {
            out[r * num_features] =
                static_cast<float>(ValueAsDouble(column[r]));
        }
        ++out_col;
    }
    // The one counted copy: DBMS values -> float32 feature block.
    RowBlock::NoteCopy(static_cast<std::uint64_t>(values.size()) *
                       sizeof(float));
    features_ = RowBlock(std::move(values), num_features);
    return features_;
}

RowBlock
Table::MaterializeColumns(const std::vector<std::size_t>& cols,
                          std::size_t first, std::size_t end) const
{
    if (paged()) {
        throw InvalidArgument(
            "table " + name_ +
            ": MaterializeColumns() on a paged table — stream with "
            "store()->Scan()");
    }
    if (cols.empty()) {
        throw InvalidArgument("table " + name_ +
                              ": MaterializeColumns needs columns");
    }
    for (std::size_t c : cols) {
        if (c >= schema_.size()) {
            throw InvalidArgument("table " + name_ +
                                  ": MaterializeColumns column out of "
                                  "range");
        }
    }
    if (first > end || end > num_rows_) {
        throw InvalidArgument("table " + name_ +
                              ": MaterializeColumns rows out of range");
    }
    const std::size_t width = cols.size();
    std::vector<float> values((end - first) * width);
    std::size_t out_col = 0;
    for (std::size_t c : cols) {
        const std::vector<Value>& column = columns_[c];
        float* out = values.data() + out_col;
        for (std::size_t r = first; r < end; ++r) {
            out[(r - first) * width] =
                static_cast<float>(ValueAsDouble(column[r]));
        }
        ++out_col;
    }
    RowBlock::NoteCopy(static_cast<std::uint64_t>(values.size()) *
                       sizeof(float));
    return RowBlock(std::move(values), width);
}

}  // namespace dbscore
