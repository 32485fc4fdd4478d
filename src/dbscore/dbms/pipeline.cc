#include "dbscore/dbms/pipeline.h"

#include <algorithm>

#include "dbscore/common/error.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/trace/trace.h"

namespace dbscore {

using trace::StageKind;

SimTime
PipelineStageTimes::Total() const
{
    return NonScoring() + scoring.Total();
}

SimTime
PipelineStageTimes::NonScoring() const
{
    return python_invocation + data_transfer + model_preprocessing +
           data_preprocessing;
}

ScoringPipeline::ScoringPipeline(Database& db, const HardwareProfile& profile,
                                 const ExternalRuntimeParams& runtime_params)
    : db_(db), profile_(profile), runtime_(runtime_params)
{
}

PipelineRunResult
ScoringPipeline::RunScoringQuery(const std::string& model_name,
                                 const std::string& data_table,
                                 BackendKind backend,
                                 std::optional<std::size_t> max_rows)
{
    {
        const Table& early = db_.GetTable(data_table);
        if (early.paged()) {
            return RunPagedScoringQuery(model_name, early, backend,
                                        max_rows);
        }
    }

    PipelineRunResult result;
    PipelineStageTimes& stages = result.stages;

    // Root span: every simulated stage below parents to it, so one
    // query = one trace. The simulated cursor restarts at t=0 per
    // query; queries are self-relative on the modeled timeline.
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    trace::ScopedSpan root(StageKind::kQuery, "scoring-query");
    trace::SimClock::Set(SimTime());

    // Stage 1: launch (or reuse) the external scripting process.
    stages.python_invocation = runtime_.InvokeProcess();
    tracer.EmitStage(StageKind::kInvocation, "python-invocation",
                     stages.python_invocation);

    // Stage 2: the DBMS materializes the feature block once (the data
    // plane's only copy out of columnar storage) and marshals a view of
    // it. The simulated channel cost is charged from the view's actual
    // float32 payload size; the host passes the view through by
    // reference without copying.
    const Table& table = db_.GetTable(data_table);
    const std::size_t num_rows =
        std::min<std::size_t>(table.NumRows(),
                              max_rows.value_or(table.NumRows()));
    if (num_rows == 0) {
        throw InvalidArgument("pipeline: no rows to score in '" +
                              data_table + "'");
    }
    const RowBlock& block = table.MaterializeFeatures();
    const RowView features = block.View(0, num_rows);
    const std::size_t num_features = table.NumFeatureColumns();
    const SimTime transfer_in = runtime_.TransferToProcess(features);
    stages.data_transfer += transfer_in;
    tracer.EmitStage(StageKind::kMarshal, "rows-to-process", transfer_in,
                     {{"rows", static_cast<double>(num_rows)},
                      {"cols", static_cast<double>(num_features)}});

    // Stage 3: the script deserializes the model (functionally real).
    const std::uint64_t blob_bytes = db_.ModelBlobBytes(model_name);
    TreeEnsemble ensemble = db_.LoadModel(model_name);
    stages.model_preprocessing = runtime_.ModelPreprocessing(blob_bytes);
    tracer.EmitStage(StageKind::kModelPreproc, "model-deserialize",
                     stages.model_preprocessing,
                     {{"blob_bytes", static_cast<double>(blob_bytes)}});

    // Stage 4: feature extraction into the scoring matrix. The block
    // already excludes the label column; only the shape check and the
    // simulated preparation cost remain.
    if (num_features != ensemble.num_features) {
        throw InvalidArgument("pipeline: table width does not match model");
    }
    stages.data_preprocessing =
        runtime_.DataPreprocessing(num_rows, num_features);
    tracer.EmitStage(StageKind::kDataPreproc, "feature-matrix-prep",
                     stages.data_preprocessing);

    // Stage 5: score on the chosen backend. A slice of the live view
    // serves as the path-length probe — no probe dataset is copied.
    RandomForest forest = ensemble.ToForest();
    ModelStats stats = ComputeModelStats(
        forest, features.Slice(0, std::min<std::size_t>(num_rows, 256)));
    auto engine = CreateLoadedEngine(backend, profile_, ensemble, stats);
    if (engine == nullptr) {
        throw CapacityError(std::string("pipeline: backend ") +
                            BackendName(backend) +
                            " cannot host this model");
    }
    ScoreResult score = [&] {
        // Grouping span: the engine's TraceOffloadStages emits the
        // Fig 6/7 components as children and advances the SimClock;
        // the span itself records the whole offload so the export
        // shows scoring-total over its parts.
        trace::ScopedSpan offload(StageKind::kOffload, BackendName(backend));
        const SimTime sim_start = trace::SimClock::Now();
        ScoreResult r = engine->Score(features);
        offload.SetSim(sim_start, r.breakdown.Total());
        offload.AddAttr("rows", static_cast<double>(num_rows));
        return r;
    }();
    stages.scoring = score.breakdown;

    // Stage 6: float32 predictions copied back into the DBMS.
    const SimTime transfer_out = runtime_.TransferFromProcess(
        static_cast<std::uint64_t>(num_rows) * sizeof(float));
    stages.data_transfer += transfer_out;
    tracer.EmitStage(StageKind::kMarshal, "results-to-dbms", transfer_out);
    root.SetSim(SimTime(), stages.Total());
    root.AddAttr("rows", static_cast<double>(num_rows));

    result.predictions = std::move(score.predictions);
    return result;
}

PipelineRunResult
ScoringPipeline::RunPagedScoringQuery(const std::string& model_name,
                                      const Table& table,
                                      BackendKind backend,
                                      std::optional<std::size_t> max_rows)
{
    PipelineRunResult result;
    PipelineStageTimes& stages = result.stages;

    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    trace::ScopedSpan root(StageKind::kQuery, "scoring-query");
    trace::SimClock::Set(SimTime());

    // Stage 1: launch (or reuse) the external scripting process.
    stages.python_invocation = runtime_.InvokeProcess();
    tracer.EmitStage(StageKind::kInvocation, "python-invocation",
                     stages.python_invocation);

    // The stream snapshots the page list up front; each chunk below is
    // a pinned zero-copy view over one buffer-pool frame, so memory
    // use is bounded by the pool no matter how large the table is.
    storage::FeatureStream stream = table.store()->Scan();
    const std::size_t num_rows =
        std::min<std::size_t>(stream.total_rows(),
                              max_rows.value_or(stream.total_rows()));
    if (num_rows == 0) {
        throw InvalidArgument("pipeline: no rows to score in '" +
                              table.name() + "'");
    }

    // Stages 3+4 (model + feature-matrix preparation) happen once,
    // before the chunk loop, exactly like the in-memory path.
    const std::uint64_t blob_bytes = db_.ModelBlobBytes(model_name);
    TreeEnsemble ensemble = db_.LoadModel(model_name);
    stages.model_preprocessing = runtime_.ModelPreprocessing(blob_bytes);
    tracer.EmitStage(StageKind::kModelPreproc, "model-deserialize",
                     stages.model_preprocessing,
                     {{"blob_bytes", static_cast<double>(blob_bytes)}});

    const std::size_t num_features = table.NumFeatureColumns();
    if (num_features != ensemble.num_features) {
        throw InvalidArgument("pipeline: table width does not match model");
    }
    stages.data_preprocessing =
        runtime_.DataPreprocessing(num_rows, num_features);
    tracer.EmitStage(StageKind::kDataPreproc, "feature-matrix-prep",
                     stages.data_preprocessing);

    // Stage 2+5, chunk-wise: marshal each pinned chunk to the process
    // and score it, accumulating the same stage totals. The engine is
    // created on the first chunk (the path-length probe needs live
    // rows) and reused for the rest of the stream.
    RandomForest forest = ensemble.ToForest();
    std::unique_ptr<ScoringEngine> engine;
    result.predictions.reserve(num_rows);
    std::size_t scored = 0;
    storage::StreamChunk chunk;
    while (scored < num_rows && stream.Next(chunk)) {
        RowView view = chunk.view;
        if (scored + view.rows() > num_rows) {
            view = view.Slice(0, num_rows - scored);
        }
        const SimTime transfer_in = runtime_.TransferToProcess(view);
        stages.data_transfer += transfer_in;
        tracer.EmitStage(StageKind::kMarshal, "rows-to-process",
                         transfer_in,
                         {{"rows", static_cast<double>(view.rows())},
                          {"page_id",
                           static_cast<double>(chunk.page_id)}});
        if (engine == nullptr) {
            ModelStats stats = ComputeModelStats(
                forest,
                view.Slice(0, std::min<std::size_t>(view.rows(), 256)));
            engine = CreateLoadedEngine(backend, profile_, ensemble,
                                        stats);
            if (engine == nullptr) {
                throw CapacityError(std::string("pipeline: backend ") +
                                    BackendName(backend) +
                                    " cannot host this model");
            }
        }
        trace::ScopedSpan offload(StageKind::kOffload,
                                  BackendName(backend));
        const SimTime sim_start = trace::SimClock::Now();
        ScoreResult score = engine->Score(view);
        offload.SetSim(sim_start, score.breakdown.Total());
        offload.AddAttr("rows", static_cast<double>(view.rows()));
        stages.scoring += score.breakdown;
        result.predictions.insert(result.predictions.end(),
                                  score.predictions.begin(),
                                  score.predictions.end());
        scored += view.rows();
    }

    // Stage 6: float32 predictions copied back into the DBMS.
    const SimTime transfer_out = runtime_.TransferFromProcess(
        static_cast<std::uint64_t>(scored) * sizeof(float));
    stages.data_transfer += transfer_out;
    tracer.EmitStage(StageKind::kMarshal, "results-to-dbms", transfer_out);
    root.SetSim(SimTime(), stages.Total());
    root.AddAttr("rows", static_cast<double>(scored));
    return result;
}

PipelineStageTimes
ScoringPipeline::EstimateQuery(const std::string& model_name,
                               std::size_t num_rows, BackendKind backend)
{
    PipelineStageTimes stages;

    // Same trace shape as the run path, with the same stage order, so
    // trace-derived totals are comparable between the two.
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    trace::ScopedSpan root(StageKind::kQuery, "estimate-query");
    trace::SimClock::Set(SimTime());

    stages.python_invocation = runtime_.InvokeProcess();
    tracer.EmitStage(StageKind::kInvocation, "python-invocation",
                     stages.python_invocation);

    // Wire format mirrors the run path: a float32 feature view out,
    // float32 predictions back.
    TreeEnsemble ensemble = db_.LoadModel(model_name);
    const std::uint64_t wire_bytes =
        static_cast<std::uint64_t>(num_rows) * ensemble.num_features *
        sizeof(float);
    const SimTime transfer_in = runtime_.TransferToProcess(wire_bytes);
    stages.data_transfer += transfer_in;
    tracer.EmitStage(StageKind::kMarshal, "rows-to-process", transfer_in,
                     {{"rows", static_cast<double>(num_rows)}});

    const std::uint64_t blob_bytes = db_.ModelBlobBytes(model_name);
    stages.model_preprocessing = runtime_.ModelPreprocessing(blob_bytes);
    tracer.EmitStage(StageKind::kModelPreproc, "model-deserialize",
                     stages.model_preprocessing);

    stages.data_preprocessing =
        runtime_.DataPreprocessing(num_rows, ensemble.num_features);
    tracer.EmitStage(StageKind::kDataPreproc, "feature-matrix-prep",
                     stages.data_preprocessing);

    RandomForest forest = ensemble.ToForest();
    ModelStats stats = ComputeModelStats(forest, nullptr);
    auto engine = CreateLoadedEngine(backend, profile_, ensemble, stats);
    if (engine == nullptr) {
        throw CapacityError(std::string("pipeline: backend ") +
                            BackendName(backend) +
                            " cannot host this model");
    }
    stages.scoring = engine->Estimate(num_rows);
    {
        // Estimate never enters the engines' functional path, so the
        // pipeline tags the offload components itself.
        trace::ScopedSpan offload(StageKind::kOffload, BackendName(backend));
        offload.SetSim(trace::SimClock::Now(), stages.scoring.Total());
        TraceOffloadStages(stages.scoring);
    }

    const SimTime transfer_out = runtime_.TransferFromProcess(
        static_cast<std::uint64_t>(num_rows) * sizeof(float));
    stages.data_transfer += transfer_out;
    tracer.EmitStage(StageKind::kMarshal, "results-to-dbms", transfer_out);
    root.SetSim(SimTime(), stages.Total());
    return stages;
}

BackendKind
ScoringPipeline::AdviseBackend(const std::string& model_name,
                               std::size_t num_rows)
{
    TreeEnsemble ensemble = db_.LoadModel(model_name);
    RandomForest forest = ensemble.ToForest();
    ModelStats stats = ComputeModelStats(forest, nullptr);
    OffloadScheduler scheduler(profile_, ensemble, stats);
    return scheduler.Choose(num_rows).best;
}

}  // namespace dbscore
