#include "dbscore/data/csv_loader.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dbscore/common/csv.h"
#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"

namespace dbscore {

Dataset
LoadCsvDataset(std::istream& in, const CsvLoadOptions& options)
{
    CsvDocument doc = ReadCsv(in, options.has_header);
    if (doc.rows.empty()) {
        throw ParseError("csv dataset: no data rows");
    }
    const std::size_t arity = doc.rows.front().size();
    if (arity < 2) {
        throw ParseError("csv dataset: need at least 1 feature + label");
    }
    std::size_t label_col =
        options.label_column < 0
            ? arity - 1
            : static_cast<std::size_t>(options.label_column);
    if (label_col >= arity) {
        throw InvalidArgument("csv dataset: label column out of range");
    }

    const std::size_t num_features = arity - 1;

    // First pass parses everything so class inference can precede
    // Dataset construction.
    std::vector<float> values;
    std::vector<float> labels;
    values.reserve(doc.rows.size() * num_features);
    labels.reserve(doc.rows.size());
    for (const auto& row : doc.rows) {
        if (row.size() != arity) {
            throw ParseError("csv dataset: ragged row");
        }
        for (std::size_t c = 0; c < arity; ++c) {
            const float v = ParseCsvNumber(row[c]);
            if (c == label_col) {
                labels.push_back(v);
            } else {
                values.push_back(v);
            }
        }
    }

    // Class labels are class ids: non-negative integers below the class
    // count, whether it is given or inferred (max label + 1, at least 2).
    int num_classes = 0;
    float max_label = 0.0f;
    if (options.task == Task::kClassification) {
        for (float l : labels) {
            if (l < 0.0f || l != std::floor(l)) {
                throw ParseError(
                    "csv dataset: class labels must be non-negative ints");
            }
            max_label = std::max(max_label, l);
        }
        // The class count must fit an int: inf or 1e30 is no class id
        // (casting it would be undefined).
        if (!(max_label <
              static_cast<float>(std::numeric_limits<int>::max()))) {
            throw ParseError(StrFormat(
                "csv dataset: class label %g is too large",
                static_cast<double>(max_label)));
        }
        num_classes = options.num_classes != 0
                          ? options.num_classes
                          : std::max(2, static_cast<int>(max_label) + 1);
    }

    Dataset data(options.name, options.task, num_features, num_classes);
    if (options.task == Task::kClassification &&
        !(max_label < static_cast<float>(num_classes))) {
        throw ParseError(StrFormat(
            "csv dataset: class label %g is not below the class count %d",
            static_cast<double>(max_label), num_classes));
    }
    if (options.has_header && doc.header.size() == arity) {
        for (std::size_t c = 0; c < arity; ++c) {
            if (c != label_col) {
                data.feature_names().push_back(Trim(doc.header[c]));
            }
        }
    }
    data.Assign(std::move(values), std::move(labels));
    return data;
}

}  // namespace dbscore
