/**
 * @file
 * The functional front end both serving layers score row payloads
 * through.
 *
 * A CompiledModel holds what scoring a model needs and nothing else:
 * its compiled ForestKernel, or — only when ForestKernel::Supports()
 * is false (an oversized tree) — the reference RandomForest. Either
 * way Predict() is bit-identical to RandomForest::PredictBatch on the
 * same ensemble. It is immutable once built, so one instance is safely
 * shared across worker threads and, in the fleet registry, across
 * every re-warm of a model.
 */
#ifndef DBSCORE_SERVE_COMPILED_MODEL_H
#define DBSCORE_SERVE_COMPILED_MODEL_H

#include <memory>
#include <vector>

#include "dbscore/data/row_block.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/onnx_like.h"

namespace dbscore::serve {

/** A model converted and compiled for serving; see file comment. */
class CompiledModel {
 public:
    /**
     * Converts @p ensemble (ToForest) and compiles its kernel; keeps
     * the forest only when the kernel cannot compile it.
     * @throws ParseError on a malformed ensemble
     */
    explicit CompiledModel(const TreeEnsemble& ensemble);

    /** Predictions for @p rows, traversed in place. */
    std::vector<float> Predict(const RowView& rows) const;

    /** The compiled kernel; null when the model needs the forest. */
    const ForestKernel* kernel() const { return kernel_.get(); }

    /** The reference forest; null when the kernel serves the model. */
    const RandomForest* forest() const { return forest_.get(); }

 private:
    std::unique_ptr<const ForestKernel> kernel_;
    std::unique_ptr<const RandomForest> forest_;
};

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_COMPILED_MODEL_H
