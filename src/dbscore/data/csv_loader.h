/**
 * @file
 * Loading tabular datasets from CSV text.
 */
#ifndef DBSCORE_DATA_CSV_LOADER_H
#define DBSCORE_DATA_CSV_LOADER_H

#include <istream>
#include <string>

#include "dbscore/data/dataset.h"

namespace dbscore {

/** Options controlling CSV dataset ingestion. */
struct CsvLoadOptions {
    /** Column holding the label; negative means the last column. */
    int label_column = -1;
    /** First record is a header row with column names. */
    bool has_header = true;
    Task task = Task::kClassification;
    /**
     * Class count; 0 means infer as (max integer label + 1, at least 2)
     * for classification. Given or inferred, every classification
     * label must be a non-negative integer below it.
     */
    int num_classes = 0;
    std::string name = "csv";
};

/**
 * Parses a CSV stream into a Dataset. Cells are read by
 * ParseCsvNumber (common/csv.h), as Database::BulkLoadCsvPaged reads
 * them.
 *
 * @throws ParseError on malformed numeric fields, ragged rows, or a
 *         classification label that is no class id.
 */
Dataset LoadCsvDataset(std::istream& in, const CsvLoadOptions& options);

}  // namespace dbscore

#endif  // DBSCORE_DATA_CSV_LOADER_H
