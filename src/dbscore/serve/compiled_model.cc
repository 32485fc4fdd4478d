#include "dbscore/serve/compiled_model.h"

#include <utility>

namespace dbscore::serve {

CompiledModel::CompiledModel(const TreeEnsemble& ensemble)
{
    RandomForest forest = ensemble.ToForest();
    if (ForestKernel::Supports(forest)) {
        kernel_ = std::make_unique<const ForestKernel>(forest);
    } else {
        forest_ = std::make_unique<const RandomForest>(std::move(forest));
    }
}

std::vector<float>
CompiledModel::Predict(const RowView& rows) const
{
    return kernel_ != nullptr ? kernel_->Predict(rows)
                              : forest_->PredictBatch(rows);
}

}  // namespace dbscore::serve
