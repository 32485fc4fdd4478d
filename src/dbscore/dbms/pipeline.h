/**
 * @file
 * The end-to-end analytics + scoring pipeline (paper Figure 2):
 *
 *   T-SQL query -> launch external process -> copy data to it ->
 *   deserialize model -> prepare features -> score on a backend ->
 *   copy predictions back.
 *
 * RunScoringQuery executes the whole flow functionally (real predictions)
 * while accumulating the Figure-11 stage breakdown; EstimateQuery produces
 * the same breakdown analytically for sizes too large to materialize.
 */
#ifndef DBSCORE_DBMS_PIPELINE_H
#define DBSCORE_DBMS_PIPELINE_H

#include <optional>
#include <string>
#include <vector>

#include "dbscore/core/backend_factory.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/external_runtime.h"

namespace dbscore {

/** Figure-11 stage times for one query. */
struct PipelineStageTimes {
    /** Launching the external Python process. */
    SimTime python_invocation;
    /** DBMS <-> process copies of data and results. */
    SimTime data_transfer;
    /** Deserializing the model blob. */
    SimTime model_preprocessing;
    /** Feature extraction / scoring-matrix preparation. */
    SimTime data_preprocessing;
    /** The overall model scoring time (engine breakdown). */
    OffloadBreakdown scoring;

    SimTime Total() const;
    /** Everything except scoring — the pipeline overhead. */
    SimTime NonScoring() const;
};

/** Result of one end-to-end scoring query. */
struct PipelineRunResult {
    std::vector<float> predictions;
    PipelineStageTimes stages;
};

/** Executes scoring queries against a database. */
class ScoringPipeline {
 public:
    ScoringPipeline(Database& db, const HardwareProfile& profile,
                    const ExternalRuntimeParams& runtime_params);

    Database& db() { return db_; }
    ExternalScriptRuntime& runtime() { return runtime_; }
    const HardwareProfile& profile() const { return profile_; }

    /**
     * Runs the full pipeline: data from @p data_table, model
     * @p model_name from the models table, scoring on @p backend. An
     * in-memory table is marshaled and scored as one chunk; a paged
     * table streams chunk-wise (one pinned page at a time), so tables
     * larger than the buffer pool score in bounded memory. Per-chunk
     * marshal and offload spans add up to the Figure-11 stage totals.
     *
     * @param max_rows optionally scores only the first rows (the paper's
     *        record-count axis)
     * @throws NotFound / CapacityError / InvalidArgument per stage
     */
    PipelineRunResult RunScoringQuery(const std::string& model_name,
                                      const std::string& data_table,
                                      BackendKind backend,
                                      std::optional<std::size_t> max_rows =
                                          std::nullopt);

    /**
     * Analytic stage breakdown for scoring @p num_rows records of the
     * stored model @p model_name on @p backend, without materializing
     * data (used for the 1M-record points of Figure 11).
     */
    PipelineStageTimes EstimateQuery(const std::string& model_name,
                                     std::size_t num_rows,
                                     BackendKind backend);

    /**
     * Scheduler-backed backend choice for scoring @p num_rows records of
     * the stored model: the dynamic decision the paper argues for
     * (drives sp_score_model's @backend = 'auto').
     */
    BackendKind AdviseBackend(const std::string& model_name,
                              std::size_t num_rows);

 private:
    Database& db_;
    HardwareProfile profile_;
    ExternalScriptRuntime runtime_;
};

}  // namespace dbscore

#endif  // DBSCORE_DBMS_PIPELINE_H
