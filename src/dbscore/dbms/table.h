/**
 * @file
 * Columnar table storage for the mini-DBMS.
 *
 * A Table has one of two backings:
 *  - in-memory (the default): columns of Values, with the feature
 *    block lazily materialized by MaterializeFeatures();
 *  - paged: rows live in a dbscore::storage::PagedTable page file and
 *    flow through a BufferPool — the out-of-core mode for datasets
 *    larger than RAM. Paged tables answer NumRows/FloatAt/AppendRow
 *    through the store; consumers stream their rows as pinned
 *    zero-copy chunks with store()->Scan(). At, Column,
 *    MaterializeFeatures and MaterializeColumns serve Values or
 *    whole-table blocks that a paged table does not hold in memory,
 *    and throw on one.
 */
#ifndef DBSCORE_DBMS_TABLE_H
#define DBSCORE_DBMS_TABLE_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dbscore/data/row_block.h"
#include "dbscore/dbms/value.h"
#include "dbscore/storage/paged_table.h"

namespace dbscore {

/** One column's name and type. */
struct ColumnDef {
    std::string name;
    ColumnType type;
};

/** A columnar table. */
class Table {
 public:
    Table() = default;
    Table(std::string name, std::vector<ColumnDef> schema);

    /**
     * Wraps an opened/created paged store as a catalog table. The
     * schema is reconstructed from the store's column names (every
     * stored column is FLOAT).
     */
    static Table FromPagedStore(
        std::string name,
        std::shared_ptr<storage::PagedTable> store);

    /** True when rows live in the out-of-core page file. */
    bool paged() const { return store_ != nullptr; }

    /** The paged backing store; null for in-memory tables. */
    const std::shared_ptr<storage::PagedTable>& store() const
    {
        return store_;
    }

    const std::string& name() const { return name_; }
    const std::vector<ColumnDef>& schema() const { return schema_; }
    std::size_t NumColumns() const { return schema_.size(); }

    std::size_t
    NumRows() const
    {
        return paged() ? static_cast<std::size_t>(store_->num_rows())
                       : num_rows_;
    }

    /**
     * Index of column @p column_name (case-insensitive).
     * @throws NotFound if absent
     */
    std::size_t ColumnIndex(const std::string& column_name) const;

    /**
     * Appends one row. Int literals coerce into FLOAT columns.
     * @throws InvalidArgument on arity or type mismatch
     */
    void AppendRow(std::vector<Value> row);

    /**
     * Cell reference. @throws InvalidArgument on a paged table — use
     * FloatAt() (values live in the page file, not as Values).
     */
    const Value& At(std::size_t row, std::size_t col) const;

    /**
     * Cell as float — works for both backings (paged tables read
     * through the buffer pool; in-memory tables convert the Value).
     */
    float FloatAt(std::size_t row, std::size_t col) const;

    /**
     * Whole column (for scans). @throws InvalidArgument on a paged
     * table — stream with store()->Scan() instead.
     */
    const std::vector<Value>& Column(std::size_t col) const;

    /** Index of the feature-excluded "label" column, or NumColumns(). */
    std::size_t LabelColumnIndex() const;

    /** Columns that materialize as features (all but "label"). */
    std::size_t NumFeatureColumns() const;

    /**
     * Row-major float32 materialization of every non-label column —
     * the data plane's single copy out of DBMS storage. Built lazily,
     * cached until the next AppendRow, and counted against
     * RowBlock::CopyStats. Views taken from the returned block share
     * its refcounted storage and stay valid across cache invalidation
     * (the cache drops its reference; it never mutates the old block).
     * @throws InvalidArgument on a paged table
     */
    const RowBlock& MaterializeFeatures() const;

    /**
     * A SCORE's own feature block, for a score that does not read every
     * feature column in table order: a row-major float32 block of just
     * @p cols (table column indices, in the requested order) over rows
     * [@p first, @p end). The executor calls it once per scored slice,
     * so only @p cols of the rows a statement scores are converted: a
     * column the score does not read (a VARCHAR, say) is never touched,
     * and a TOP n that stops after one slice converts one slice.
     * Counted against RowBlock::CopyStats; not cached (the column set
     * is a property of the statement, not the table).
     * @throws InvalidArgument on a paged table, or when @p cols is
     *         empty or out of range, or the rows are out of range
     */
    RowBlock MaterializeColumns(const std::vector<std::size_t>& cols,
                                std::size_t first, std::size_t end) const;

 private:
    std::string name_;
    std::vector<ColumnDef> schema_;
    std::vector<std::vector<Value>> columns_;
    std::size_t num_rows_ = 0;
    /** Lazy feature cache; empty() means not materialized. */
    mutable RowBlock features_;
    /** Paged backing; null for in-memory tables. */
    std::shared_ptr<storage::PagedTable> store_;
};

}  // namespace dbscore

#endif  // DBSCORE_DBMS_TABLE_H
