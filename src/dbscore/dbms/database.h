/**
 * @file
 * Database catalog: named tables plus helpers for storing datasets and
 * serialized models the way the paper's pipeline does.
 */
#ifndef DBSCORE_DBMS_DATABASE_H
#define DBSCORE_DBMS_DATABASE_H

#include <map>
#include <string>
#include <vector>

#include "dbscore/data/dataset.h"
#include "dbscore/dbms/table.h"
#include "dbscore/forest/onnx_like.h"

namespace dbscore {

/** A named collection of tables. */
class Database {
 public:
    /** @throws InvalidArgument if the table already exists */
    Table& CreateTable(const std::string& name,
                       std::vector<ColumnDef> schema);

    bool HasTable(const std::string& name) const;

    /** @throws NotFound */
    Table& GetTable(const std::string& name);
    const Table& GetTable(const std::string& name) const;

    /** @throws NotFound */
    void DropTable(const std::string& name);

    std::vector<std::string> TableNames() const;

    /**
     * Stores @p dataset as a table with one FLOAT column per feature
     * plus a FLOAT "label" column — how the paper keeps scoring data in
     * the DBMS.
     */
    Table& StoreDataset(const std::string& table_name,
                        const Dataset& dataset);

    /**
     * Stores @p dataset out of core: creates a page file at
     * @p page_path, bulk-loads every row through the buffer pool, and
     * registers the table in paged mode (same schema shape as
     * StoreDataset). The data is committed (ordered commit protocol,
     * DESIGN.md §16) before returning; pass
     * options.sync_mode = SyncMode::kFsync for a real device barrier.
     */
    Table& StoreDatasetPaged(const std::string& table_name,
                             const Dataset& dataset,
                             const std::string& page_path,
                             const storage::StorageOptions& options = {});

    /**
     * Registers an existing page file (written by StoreDatasetPaged /
     * BulkLoadCsvPaged, possibly in an earlier process) as a paged
     * table. The attach is recovery-aware: Open() rolls a torn commit
     * back to the last committed generation and reclaims orphan pages
     * (check the table's store()->last_recovery() for what happened),
     * so every consumer — engines, planner, serve, fleet — sees a
     * consistent table even after a crash. options.scrub_on_attach
     * additionally checksum-verifies every reachable page up front.
     */
    Table& AttachPagedTable(const std::string& table_name,
                            const std::string& page_path,
                            const storage::StorageOptions& options = {});

    /**
     * Streams @p csv_path (header row required; a column named
     * "label", if present, becomes the label column) directly into a
     * fresh page file at @p page_path — one record in memory at a
     * time, so the CSV may exceed RAM — and registers the paged table.
     * Cells are read by ParseCsvNumber (common/csv.h), as
     * LoadCsvDataset reads them.
     * @throws ParseError on malformed CSV or non-numeric cells, naming
     *         the file and record
     */
    Table& BulkLoadCsvPaged(const std::string& table_name,
                            const std::string& csv_path,
                            const std::string& page_path,
                            const storage::StorageOptions& options = {});

    /**
     * Inserts a serialized model into the "models" table (created on
     * first use: name VARCHAR, model VARBINARY), the paper's
     * models-live-in-the-database arrangement.
     */
    void StoreModel(const std::string& model_name,
                    const TreeEnsemble& ensemble);

    /** Fetches and deserializes a model. @throws NotFound */
    TreeEnsemble LoadModel(const std::string& model_name) const;

    /** Serialized size of a stored model blob. @throws NotFound */
    std::uint64_t ModelBlobBytes(const std::string& model_name) const;

    /**
     * Monotonic counter bumped by every catalog mutation (table
     * create/drop, model store, paged attach). Cached query plans
     * carry the version they compiled against and are invalidated when
     * it moves (plan/plan_cache.h).
     */
    std::uint64_t catalog_version() const { return catalog_version_; }

    /** Records a catalog mutation (also for out-of-band changes, e.g.
     * INSERTs into the models table through the engine). */
    void NoteCatalogChange() { ++catalog_version_; }

 private:
    /** Case-insensitive name key. */
    static std::string Key(const std::string& name);

    /** Inserts a paged store as a catalog table. */
    Table& RegisterPaged(const std::string& name,
                         std::shared_ptr<storage::PagedTable> store);

    const std::vector<std::uint8_t>&
    ModelBlob(const std::string& model_name) const;

    std::map<std::string, Table> tables_;
    std::uint64_t catalog_version_ = 0;
};

}  // namespace dbscore

#endif  // DBSCORE_DBMS_DATABASE_H
