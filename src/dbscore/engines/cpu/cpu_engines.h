/**
 * @file
 * CPU scoring engines: Scikit-learn-style and ONNX-runtime-style.
 *
 * Both engines functionally score by real forest traversal (predictions are
 * identical to the reference model by construction) and report modeled
 * latency per the CpuSpec cost model. They differ exactly where the paper
 * says the real frameworks differ:
 *
 *  - SklearnCpuEngine: large fixed per-call overhead (Python layer), cheap
 *    well-threaded batch loop — wins at large batch sizes.
 *  - OnnxCpuEngine: tiny fixed overhead, expensive per-record operator
 *    dispatch ("ONNX is not currently optimized for batch scoring") —
 *    wins below the ~5K-record crossover; run with 1 thread (CPU_ONNX)
 *    or 52 threads (CPU_ONNX_52th).
 */
#ifndef DBSCORE_ENGINES_CPU_CPU_ENGINES_H
#define DBSCORE_ENGINES_CPU_CPU_ENGINES_H

#include "dbscore/engines/cpu/cpu_spec.h"
#include "dbscore/engines/scoring_engine.h"
#include "dbscore/forest/forest.h"

namespace dbscore {

/**
 * Shared functional-scoring plumbing for CPU engines. Their cost card
 * is the CpuSpec, the thread count and the ModelStats; the two
 * frameworks differ only in which CpuSpec constants it reads.
 */
class CpuEngineBase : public ScoringEngine {
 public:
    CpuEngineBase(const CpuSpec& spec, int threads);

    void LoadModel(const TreeEnsemble& model,
                   const ModelStats& stats) override;

    std::unique_ptr<const CostCard> MakeCostCard(
        const RandomForest& forest, const ModelStats& stats) const override;

    ScoreResult Score(const float* rows, std::size_t num_rows,
                      std::size_t num_cols) override;

    int threads() const { return threads_; }
    const CpuSpec& spec() const { return spec_; }

 private:
    CpuSpec spec_;
    int threads_;
    RandomForest forest_;
    std::size_t num_features_ = 0;
};

/** Scikit-learn-style batch engine (paper's CPU_SKLearn, 52 threads). */
class SklearnCpuEngine : public CpuEngineBase {
 public:
    explicit SklearnCpuEngine(const CpuSpec& spec, int threads = 0);

    BackendKind kind() const override { return BackendKind::kCpuSklearn; }
};

/** ONNX-runtime-style engine (CPU_ONNX at 1 thread, CPU_ONNX_52th at 52). */
class OnnxCpuEngine : public CpuEngineBase {
 public:
    explicit OnnxCpuEngine(const CpuSpec& spec, int threads = 1);

    BackendKind
    kind() const override
    {
        return threads() == 1 ? BackendKind::kCpuOnnx
                              : BackendKind::kCpuOnnxMt;
    }
};

}  // namespace dbscore

#endif  // DBSCORE_ENGINES_CPU_CPU_ENGINES_H
