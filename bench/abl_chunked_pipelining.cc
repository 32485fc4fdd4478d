/**
 * @file
 * Ablation: chunked double-buffered offloading.
 *
 * The paper's future-work section suggests pipelining as a mitigation
 * for offload overheads. This bench splits a 1M-record scoring batch
 * into chunks whose transfers overlap compute and reports the best
 * chunking per backend.
 */
#include <iostream>

#include "bench_util.h"
#include "dbscore/common/string_util.h"
#include "dbscore/common/table_printer.h"
#include "dbscore/core/chunked_pipeline.h"
#include "dbscore/core/report.h"

namespace dbscore::bench {
namespace {

const char*
StageName(int stage)
{
    switch (stage) {
      case 0: return "input";
      case 1: return "compute";
      case 2: return "output";
    }
    return "?";
}

void
Run()
{
    TablePrinter table({"model", "backend", "unchunked @1M",
                        "best chunking", "pipelined total", "speedup",
                        "bottleneck"});
    for (DatasetKind kind : {DatasetKind::kIris, DatasetKind::kHiggs}) {
        const BenchModel& model = GetModel(kind, 128, 10);
        for (BackendKind backend :
             {BackendKind::kGpuHummingbird, BackendKind::kGpuRapids,
              BackendKind::kFpga}) {
            auto engine = CreateLoadedEngine(backend, HardwareProfile::Paper(),
                                             model.ensemble, model.stats);
            if (engine == nullptr) {
                continue;
            }
            ChunkedPlan plan = PlanChunkedScoring(*engine, 1000000);
            table.AddRow(
                {std::string(DatasetName(kind)) + " 128t/10d",
                 BackendName(backend), plan.unchunked.ToString(),
                 StrFormat("%zu x %s", plan.best.num_chunks,
                           HumanCount(plan.best.chunk_rows).c_str()),
                 plan.best.total.ToString(),
                 FormatSpeedup(plan.speedup),
                 StageName(plan.best.bottleneck_stage)});
        }
    }
    std::cout << "Ablation: chunked double-buffered offload "
                 "(1M records)\n";
    table.Print(std::cout);
    std::cout << "\nChunking pays where transfers rival compute (the "
                 "GPU on wide HIGGS rows);\nthe FPGA gains little "
                 "because its record streaming already overlaps\n"
                 "scoring by design.\n";
}

}  // namespace
}  // namespace dbscore::bench

int
main()
{
    dbscore::bench::Run();
    return 0;
}
