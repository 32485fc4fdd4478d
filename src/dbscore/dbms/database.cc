#include "dbscore/dbms/database.h"

#include <fstream>

#include "dbscore/common/csv.h"
#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"

namespace dbscore {

namespace {
constexpr const char* kModelsTable = "models";
}  // namespace

std::string
Database::Key(const std::string& name)
{
    return ToLower(name);
}

Table&
Database::CreateTable(const std::string& name, std::vector<ColumnDef> schema)
{
    auto [it, inserted] =
        tables_.try_emplace(Key(name), Table(name, std::move(schema)));
    if (!inserted) {
        throw InvalidArgument("database: table '" + name +
                              "' already exists");
    }
    NoteCatalogChange();
    return it->second;
}

bool
Database::HasTable(const std::string& name) const
{
    return tables_.count(Key(name)) > 0;
}

Table&
Database::GetTable(const std::string& name)
{
    auto it = tables_.find(Key(name));
    if (it == tables_.end()) {
        throw NotFound("database: no table '" + name + "'");
    }
    return it->second;
}

const Table&
Database::GetTable(const std::string& name) const
{
    auto it = tables_.find(Key(name));
    if (it == tables_.end()) {
        throw NotFound("database: no table '" + name + "'");
    }
    return it->second;
}

void
Database::DropTable(const std::string& name)
{
    if (tables_.erase(Key(name)) == 0) {
        throw NotFound("database: no table '" + name + "'");
    }
    NoteCatalogChange();
}

std::vector<std::string>
Database::TableNames() const
{
    std::vector<std::string> names;
    names.reserve(tables_.size());
    for (const auto& [key, table] : tables_) {
        names.push_back(table.name());
    }
    return names;
}

Table&
Database::StoreDataset(const std::string& table_name, const Dataset& dataset)
{
    std::vector<ColumnDef> schema;
    schema.reserve(dataset.num_features() + 1);
    for (std::size_t f = 0; f < dataset.num_features(); ++f) {
        std::string col = f < dataset.feature_names().size()
            ? dataset.feature_names()[f]
            : "f" + std::to_string(f);
        schema.push_back({std::move(col), ColumnType::kDouble});
    }
    schema.push_back({"label", ColumnType::kDouble});

    Table& table = CreateTable(table_name, std::move(schema));
    std::vector<Value> row(dataset.num_features() + 1);
    for (std::size_t r = 0; r < dataset.num_rows(); ++r) {
        const float* src = dataset.Row(r);
        for (std::size_t f = 0; f < dataset.num_features(); ++f) {
            row[f] = static_cast<double>(src[f]);
        }
        row[dataset.num_features()] =
            static_cast<double>(dataset.Label(r));
        table.AppendRow(row);
    }
    return table;
}

Table&
Database::RegisterPaged(const std::string& name,
                        std::shared_ptr<storage::PagedTable> store)
{
    auto [it, inserted] = tables_.try_emplace(
        Key(name), Table::FromPagedStore(name, std::move(store)));
    if (!inserted) {
        throw InvalidArgument("database: table '" + name +
                              "' already exists");
    }
    NoteCatalogChange();
    return it->second;
}

Table&
Database::StoreDatasetPaged(const std::string& table_name,
                            const Dataset& dataset,
                            const std::string& page_path,
                            const storage::StorageOptions& options)
{
    if (HasTable(table_name)) {
        throw InvalidArgument("database: table '" + table_name +
                              "' already exists");
    }
    std::vector<std::string> columns;
    columns.reserve(dataset.num_features() + 1);
    for (std::size_t f = 0; f < dataset.num_features(); ++f) {
        columns.push_back(f < dataset.feature_names().size()
                              ? dataset.feature_names()[f]
                              : "f" + std::to_string(f));
    }
    columns.push_back("label");
    auto store = storage::PagedTable::Create(
        page_path, std::move(columns), dataset.num_features(), options);
    for (std::size_t r = 0; r < dataset.num_rows(); ++r) {
        store->AppendRow(dataset.Row(r), dataset.num_features(),
                         dataset.Label(r));
    }
    store->Flush();
    return RegisterPaged(table_name, std::move(store));
}

Table&
Database::AttachPagedTable(const std::string& table_name,
                           const std::string& page_path,
                           const storage::StorageOptions& options)
{
    return RegisterPaged(table_name,
                         storage::PagedTable::Open(page_path, options));
}

Table&
Database::BulkLoadCsvPaged(const std::string& table_name,
                           const std::string& csv_path,
                           const std::string& page_path,
                           const storage::StorageOptions& options)
{
    if (HasTable(table_name)) {
        throw InvalidArgument("database: table '" + table_name +
                              "' already exists");
    }
    std::ifstream in(csv_path, std::ios::binary);
    if (!in) {
        throw IoError("database: cannot open CSV '" + csv_path + "'");
    }
    std::shared_ptr<storage::PagedTable> store;
    std::size_t label_col = 0;
    std::vector<float> features;
    std::uint64_t line = 0;
    // One record in memory at a time: the header creates the store,
    // every later record appends straight through the buffer pool.
    ForEachCsvRecord(in, [&](std::vector<std::string>& record) {
        ++line;
        if (store == nullptr) {
            label_col = record.size();
            for (std::size_t c = 0; c < record.size(); ++c) {
                if (EqualsIgnoreCase(record[c], "label")) {
                    label_col = c;
                    break;
                }
            }
            store = storage::PagedTable::Create(page_path, record,
                                                label_col, options);
            features.reserve(store->num_feature_cols());
            return;
        }
        if (record.size() != store->columns().size()) {
            throw ParseError(
                StrFormat("csv %s record %llu: %zu cells, header has %zu",
                          csv_path.c_str(),
                          static_cast<unsigned long long>(line),
                          record.size(), store->columns().size()));
        }
        features.clear();
        float label = 0.0F;
        try {
            for (std::size_t c = 0; c < record.size(); ++c) {
                const float v = ParseCsvNumber(record[c]);
                if (c == label_col) {
                    label = v;
                } else {
                    features.push_back(v);
                }
            }
        } catch (const ParseError& e) {
            throw ParseError(StrFormat("csv %s record %llu: %s",
                                       csv_path.c_str(),
                                       static_cast<unsigned long long>(line),
                                       e.what()));
        }
        store->AppendRow(features.data(), features.size(), label);
    });
    if (store == nullptr) {
        throw ParseError("database: CSV '" + csv_path +
                         "' has no header record");
    }
    store->Flush();
    return RegisterPaged(table_name, std::move(store));
}

void
Database::StoreModel(const std::string& model_name,
                     const TreeEnsemble& ensemble)
{
    if (!HasTable(kModelsTable)) {
        CreateTable(kModelsTable, {{"name", ColumnType::kString},
                                   {"model", ColumnType::kBlob}});
    }
    Table& table = GetTable(kModelsTable);
    table.AppendRow({model_name, ensemble.Serialize()});
    NoteCatalogChange();
}

const std::vector<std::uint8_t>&
Database::ModelBlob(const std::string& model_name) const
{
    const Table& table = GetTable(kModelsTable);
    std::size_t name_col = table.ColumnIndex("name");
    std::size_t blob_col = table.ColumnIndex("model");
    // Last write wins, like an upserted model catalog.
    for (std::size_t r = table.NumRows(); r > 0; --r) {
        if (EqualsIgnoreCase(
                std::get<std::string>(table.At(r - 1, name_col)),
                model_name)) {
            return std::get<std::vector<std::uint8_t>>(
                table.At(r - 1, blob_col));
        }
    }
    throw NotFound("database: no model '" + model_name + "'");
}

TreeEnsemble
Database::LoadModel(const std::string& model_name) const
{
    return TreeEnsemble::Deserialize(ModelBlob(model_name));
}

std::uint64_t
Database::ModelBlobBytes(const std::string& model_name) const
{
    return ModelBlob(model_name).size();
}

}  // namespace dbscore
