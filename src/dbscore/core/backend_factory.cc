#include "dbscore/core/backend_factory.h"

#include "dbscore/common/error.h"
#include "dbscore/engines/cpu/cpu_engines.h"
#include "dbscore/engines/fpga/fpga_engine.h"
#include "dbscore/engines/fpga/hybrid_engine.h"
#include "dbscore/engines/gpu/hummingbird_engine.h"
#include "dbscore/engines/gpu/rapids_engine.h"
#include "dbscore/gpusim/gpu_device.h"

namespace dbscore {

const std::vector<BackendKind>&
AllBackends()
{
    static const std::vector<BackendKind> kinds = {
        BackendKind::kCpuSklearn,    BackendKind::kCpuOnnx,
        BackendKind::kCpuOnnxMt,     BackendKind::kGpuHummingbird,
        BackendKind::kGpuRapids,     BackendKind::kFpga,
    };
    return kinds;
}

std::unique_ptr<ScoringEngine>
CreateEngine(BackendKind kind, const HardwareProfile& profile)
{
    switch (kind) {
      case BackendKind::kCpuSklearn:
        return std::make_unique<SklearnCpuEngine>(profile.cpu,
                                                  profile.cpu.max_threads);
      case BackendKind::kCpuOnnx:
        return std::make_unique<OnnxCpuEngine>(profile.cpu, 1);
      case BackendKind::kCpuOnnxMt:
        return std::make_unique<OnnxCpuEngine>(profile.cpu,
                                               profile.cpu.max_threads);
      case BackendKind::kGpuHummingbird: {
        GpuDeviceModel device(profile.gpu, profile.gpu_link);
        return std::make_unique<HummingbirdGpuEngine>(device,
                                                      profile.hummingbird);
      }
      case BackendKind::kGpuRapids: {
        GpuDeviceModel device(profile.gpu, profile.gpu_link);
        return std::make_unique<RapidsFilEngine>(device, profile.rapids);
      }
      case BackendKind::kFpga:
        return std::make_unique<FpgaScoringEngine>(
            profile.fpga, profile.fpga_link, profile.fpga_offload);
      case BackendKind::kFpgaHybrid:
        return std::make_unique<HybridFpgaCpuEngine>(
            profile.fpga, profile.fpga_link, profile.fpga_offload,
            profile.cpu);
    }
    throw InvalidArgument("unknown backend kind");
}

std::unique_ptr<ScoringEngine>
CreateLoadedEngine(BackendKind kind, const HardwareProfile& profile,
                   const TreeEnsemble& model, const ModelStats& stats)
{
    auto engine = CreateEngine(kind, profile);
    try {
        engine->LoadModel(model, stats);
    } catch (const CapacityError&) {
        return nullptr;  // this backend cannot host the model
    }
    return engine;
}

}  // namespace dbscore
