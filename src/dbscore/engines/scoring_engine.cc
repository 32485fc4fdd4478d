#include "dbscore/engines/scoring_engine.h"

#include "dbscore/common/error.h"
#include "dbscore/trace/trace.h"

namespace dbscore {

const char*
BackendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kCpuSklearn: return "CPU_SKLearn";
      case BackendKind::kCpuOnnx: return "CPU_ONNX";
      case BackendKind::kCpuOnnxMt: return "CPU_ONNX_52th";
      case BackendKind::kGpuHummingbird: return "GPU_HB";
      case BackendKind::kGpuRapids: return "GPU_RAPIDS";
      case BackendKind::kFpga: return "FPGA";
      case BackendKind::kFpgaHybrid: return "FPGA_HYBRID";
    }
    return "?";
}

DeviceClass
BackendDeviceClass(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kCpuSklearn:
      case BackendKind::kCpuOnnx:
      case BackendKind::kCpuOnnxMt:
        return DeviceClass::kCpu;
      case BackendKind::kGpuHummingbird:
      case BackendKind::kGpuRapids:
        return DeviceClass::kGpu;
      case BackendKind::kFpga:
      case BackendKind::kFpgaHybrid:
        return DeviceClass::kFpga;
    }
    return DeviceClass::kCpu;
}

SimTime
OffloadBreakdown::Total() const
{
    return preprocessing + input_transfer + setup + compute +
           completion_signal + result_transfer + software_overhead;
}

SimTime
OffloadBreakdown::OverheadO() const
{
    return setup + completion_signal + software_overhead;
}

SimTime
OffloadBreakdown::TransferL() const
{
    return input_transfer + result_transfer;
}

OffloadBreakdown&
OffloadBreakdown::operator+=(const OffloadBreakdown& other)
{
    preprocessing += other.preprocessing;
    input_transfer += other.input_transfer;
    setup += other.setup;
    compute += other.compute;
    completion_signal += other.completion_signal;
    result_transfer += other.result_transfer;
    software_overhead += other.software_overhead;
    return *this;
}

void
TraceOffloadStages(const OffloadBreakdown& breakdown)
{
    using trace::StageKind;
    trace::TraceCollector& collector = trace::TraceCollector::Get();
    if (!collector.enabled() || !trace::TraceCollector::Current().valid()) {
        return;
    }
    struct Component {
        StageKind stage;
        const char* name;
        SimTime dur;
    };
    const Component components[] = {
        {StageKind::kAccelPreproc, "engine-preprocessing",
         breakdown.preprocessing},
        {StageKind::kTransferIn, "input-transfer", breakdown.input_transfer},
        {StageKind::kAccelSetup, "setup", breakdown.setup},
        {StageKind::kScoring, "compute", breakdown.compute},
        {StageKind::kCompletionSignal, "completion-signal",
         breakdown.completion_signal},
        {StageKind::kTransferOut, "result-transfer",
         breakdown.result_transfer},
        {StageKind::kSoftwareOverhead, "software-overhead",
         breakdown.software_overhead},
    };
    for (const Component& c : components) {
        if (c.dur.is_zero()) continue;
        collector.EmitStage(c.stage, c.name, c.dur);
    }
}

void
ScoringEngine::RequireLoaded() const
{
    if (!loaded()) {
        throw InvalidArgument(Name() + ": no model loaded");
    }
}

const CostCard&
ScoringEngine::card() const
{
    RequireLoaded();
    return *card_;
}

OffloadBreakdown
ScoringEngine::Estimate(std::size_t num_rows) const
{
    return card().Estimate(num_rows);
}

ScoreResult
ScoringEngine::Score(const RowView& view)
{
    if (view.contiguous()) {
        return Score(view.data(), view.rows(), view.cols());
    }
    RowBlock compact = view.Materialize();
    return Score(compact.data(), compact.rows(), compact.cols());
}

namespace {

ScoreOutcome
FaultOutcome(const fault::FaultInjected& fault)
{
    ScoreOutcome outcome;
    outcome.status = ScoreStatus::kFault;
    outcome.fault_site = fault.site();
    outcome.fault_sticky = fault.sticky();
    outcome.error = fault.what();
    return outcome;
}

}  // namespace

ScoreOutcome
ScoringEngine::TryScore(const float* rows, std::size_t num_rows,
                        std::size_t num_cols)
{
    ScoreOutcome outcome;
    try {
        outcome.result = Score(rows, num_rows, num_cols);
    } catch (const fault::FaultInjected& fault) {
        return FaultOutcome(fault);
    }
    return outcome;
}

ScoreOutcome
ScoringEngine::TryScore(const RowView& view)
{
    ScoreOutcome outcome;
    try {
        outcome.result = Score(view);
    } catch (const fault::FaultInjected& fault) {
        return FaultOutcome(fault);
    }
    return outcome;
}

std::vector<fault::FaultSite>
OffloadFaultSites(BackendKind kind)
{
    using fault::FaultSite;
    switch (BackendDeviceClass(kind)) {
      case DeviceClass::kCpu:
        return {};
      case DeviceClass::kGpu:
        return {FaultSite::kPcieDma, FaultSite::kGpuKernelLaunch,
                FaultSite::kPcieDma};
      case DeviceClass::kFpga:
        return {FaultSite::kPcieDma, FaultSite::kFpgaSetup,
                FaultSite::kFpgaCompletion, FaultSite::kPcieDma};
    }
    return {};
}

}  // namespace dbscore
