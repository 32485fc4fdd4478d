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

    // The rows to score, as chunks of feature rows. An in-memory table
    // is one chunk: a view of its feature block, which the DBMS
    // materializes once (the data plane's only copy out of columnar
    // storage). A paged table streams its pages, each chunk a pinned
    // zero-copy view over one buffer-pool frame, so memory use is
    // bounded by the pool no matter how large the table is.
    const Table& table = db_.GetTable(data_table);
    storage::FeatureStream stream;
    RowView whole;
    std::size_t total = 0;
    if (table.paged()) {
        stream = table.store()->Scan();
        total = stream.total_rows();
    } else {
        whole = table.MaterializeFeatures().View();
        total = whole.rows();
    }
    const std::size_t num_rows =
        std::min<std::size_t>(total, max_rows.value_or(total));
    if (num_rows == 0) {
        throw InvalidArgument("pipeline: no rows to score in '" +
                              data_table + "'");
    }

    // Stages 3+4 (model + feature-matrix preparation) happen once,
    // before the chunk loop.
    const std::uint64_t blob_bytes = db_.ModelBlobBytes(model_name);
    TreeEnsemble ensemble = db_.LoadModel(model_name);
    stages.model_preprocessing = runtime_.ModelPreprocessing(blob_bytes);
    tracer.EmitStage(StageKind::kModelPreproc, "model-deserialize",
                     stages.model_preprocessing,
                     {{"blob_bytes", static_cast<double>(blob_bytes)}});

    // The block already excludes the label column; only the shape
    // check and the simulated preparation cost remain.
    const std::size_t num_features = table.NumFeatureColumns();
    if (num_features != ensemble.num_features) {
        throw InvalidArgument("pipeline: table width does not match model");
    }
    stages.data_preprocessing =
        runtime_.DataPreprocessing(num_rows, num_features);
    tracer.EmitStage(StageKind::kDataPreproc, "feature-matrix-prep",
                     stages.data_preprocessing);

    // Stages 2+5, chunk by chunk: marshal each chunk to the process and
    // score it, accumulating the stage totals. The simulated channel
    // cost is charged from the view's float32 payload size; the host
    // passes the view through by reference without copying. The engine
    // is created on the first chunk (a slice of it is the path-length
    // probe, so no probe dataset is copied) and reused for the rest.
    RandomForest forest = ensemble.ToForest();
    std::unique_ptr<ScoringEngine> engine;
    result.predictions.reserve(num_rows);
    std::size_t scored = 0;
    auto score_chunk = [&](RowView view) {
        if (scored + view.rows() > num_rows) {
            view = view.Slice(0, num_rows - scored);
        }
        const SimTime transfer_in = runtime_.TransferToProcess(view);
        stages.data_transfer += transfer_in;
        tracer.EmitStage(StageKind::kMarshal, "rows-to-process",
                         transfer_in,
                         {{"rows", static_cast<double>(view.rows())},
                          {"cols", static_cast<double>(num_features)}});
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
        // Grouping span: the engine's TraceOffloadStages emits the Fig
        // 6/7 components as children and advances the SimClock; the
        // span itself records the whole offload so the export shows
        // scoring-total over its parts.
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
    };
    if (table.paged()) {
        storage::StreamChunk chunk;
        while (scored < num_rows && stream.Next(chunk)) {
            score_chunk(chunk.view);
        }
    } else {
        score_chunk(whole);
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
