/**
 * @file
 * Serving-layer demo: many concurrent client threads score against one
 * registered model through ScoringService, then export the request
 * traces the service recorded along the way.
 *
 * Shows the full lifecycle — register, start, submit an asynchronous
 * burst with real feature payloads, read per-request stage splits,
 * snapshot fleet metrics — and contrasts a coalescing service against
 * the uncoalesced baseline on the same burst. Every request flows
 * through the trace subsystem (admission -> coalesce -> queue-wait ->
 * kernel -> reply), so the run finishes by writing TRACE_service.json,
 * a Chrome trace_event file loadable in chrome://tracing or Perfetto,
 * and printing the per-stage latency summary.
 *
 * Build & run:
 *   cmake -B build && cmake --build build
 *   ./build/examples/scoring_service
 */
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "dbscore/data/synthetic.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/trace/exporters.h"
#include "dbscore/trace/trace.h"

int
main()
{
    using namespace dbscore;
    using namespace dbscore::serve;

    // 1. Train a model and collect the stats the engines need.
    Dataset higgs = MakeHiggs(2000, /*seed=*/3);
    ForestTrainerConfig trainer;
    trainer.num_trees = 64;
    trainer.max_depth = 10;
    RandomForest forest = TrainForest(higgs, trainer);
    TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    ModelStats stats = ComputeModelStats(forest, &higgs);

    // Evaluation payload the requests will carry, zero-copy: each
    // request gets a shared slice of this one Dataset's RowView.
    Dataset eval = MakeHiggs(4096, /*seed=*/11);

    // 2. Stand up the service: 2 ms coalescing window capped at 8
    //    requests per batch, queue-aware placement across CPU/GPU/FPGA,
    //    bounded admission queue.
    ServiceConfig config;
    config.coalescer.window = SimTime::Millis(2.0);
    config.coalescer.max_batch_requests = 8;
    config.admission_capacity = 256;

    ScoringService service(HardwareProfile::Paper(), config);
    service.RegisterModel("higgs-64x10", ensemble, stats);
    service.Start();

    // 3. Four client threads fire an asynchronous burst: 48 requests,
    //    64 payload rows each, with explicit modeled arrival stamps so
    //    batch membership is driven by the modeled clock. With batches
    //    capped at 8 requests, the burst fans out into ~6 micro-batches
    //    that the queue-aware placer spreads across the devices; the
    //    scorer threads (one per hardware thread) score them.
    constexpr int kClients = 4;
    constexpr int kPerClient = 12;
    constexpr std::size_t kRowsPerRequest = 64;
    std::vector<std::vector<PendingScorePtr>> pending(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                const int seq = c * kPerClient + i;
                ScoreRequest request;
                request.model_id = "higgs-64x10";
                request.num_rows = kRowsPerRequest;
                request.rows = eval.View(seq * kRowsPerRequest,
                                         (seq + 1) * kRowsPerRequest);
                request.arrival = SimTime::Micros(50.0 * seq);
                pending[c].push_back(service.Submit(std::move(request)));
            }
        });
    }
    for (auto& t : clients) t.join();

    // 4. Harvest the async handles; the first completed reply shows the
    //    per-request stage split and its real predictions.
    bool printed = false;
    for (auto& lane : pending) {
        for (auto& handle : lane) {
            const ScoreReply& reply = handle->Wait();
            if (!printed && reply.status == RequestStatus::kCompleted) {
                printed = true;
                std::cout << "first reply: "
                          << RequestStatusName(reply.status) << " on "
                          << BackendName(reply.backend) << ", rode a "
                          << reply.batch_requests
                          << "-request batch, latency "
                          << reply.timing.latency << " (invocation share "
                          << reply.timing.invocation_share << "), "
                          << reply.predictions.size() << " predictions\n";
            }
        }
    }
    service.Drain();
    service.Stop();

    // 5. The stats snapshot is the service's flight recorder; the stage
    //    totals in it are summed from the very spans exported below.
    std::cout << "\n-- coalescing service --\n"
              << service.Stats().ToString();

    // 6. Per-stage latency distribution, straight from the trace.
    std::cout << "\n-- trace summary (coalescing service) --\n";
    trace::PrintStageTable(
        std::cout, trace::TraceCollector::Get().SummaryForDomain(
                       service.trace_domain()));

    // 7. Export the request spans as Chrome trace_event JSON. Open in
    //    chrome://tracing or https://ui.perfetto.dev to see admission,
    //    coalesce, queue-wait, batch, kernel, and reply spans nested
    //    under each request, across the scorer threads.
    const char* trace_path = "TRACE_service.json";
    {
        std::ofstream out(trace_path);
        service.ExportTrace(out);
    }
    std::cout << "\nwrote " << trace_path << "\n";

    // 8. Same burst, window = 0: every request pays its own process
    //    invocation and transfer. Compare stage totals and latency.
    ServiceConfig solo = config;
    solo.coalescer.window = SimTime();
    ScoringService baseline(HardwareProfile::Paper(), solo);
    baseline.RegisterModel("higgs-64x10", ensemble, stats);
    baseline.Start();
    std::vector<std::thread> again;
    for (int c = 0; c < kClients; ++c) {
        again.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                const int seq = c * kPerClient + i;
                ScoreRequest request;
                request.model_id = "higgs-64x10";
                request.num_rows = kRowsPerRequest;
                request.arrival = SimTime::Micros(50.0 * seq);
                baseline.ScoreSync(std::move(request));
            }
        });
    }
    for (auto& t : again) t.join();
    baseline.Stop();
    std::cout << "\n-- uncoalesced baseline --\n"
              << baseline.Stats().ToString();
    return 0;
}
