#include "dbscore/engines/fpga/hybrid_engine.h"

#include <algorithm>
#include <cmath>

#include "dbscore/common/error.h"
#include "dbscore/common/thread_pool.h"

namespace dbscore {

namespace {

/** Continues a traversal from @p node down to a leaf. */
float
FinishTraversal(const DecisionTree& tree, std::int32_t node,
                const float* row)
{
    while (!tree.IsLeaf(node)) {
        node = row[tree.Feature(node)] <= tree.Threshold(node)
            ? tree.Left(node)
            : tree.Right(node);
    }
    return tree.LeafValue(node);
}

/** Accumulates continuation statistics of one tree at @p cut levels. */
void
CollectContinuations(const DecisionTree& tree, std::size_t cut,
                     double& prob_sum, double& weighted_tail)
{
    struct Frame {
        std::int32_t node;
        std::size_t depth;
    };
    std::vector<Frame> stack{{0, 0}};
    while (!stack.empty()) {
        auto [node, depth] = stack.back();
        stack.pop_back();
        if (tree.IsLeaf(node)) {
            continue;
        }
        if (depth == cut) {
            // A continued traversal reaches this subtree with
            // probability 2^-cut under uniform branching.
            double p = std::pow(0.5, static_cast<double>(cut));
            // Expected tail length ~ 0.9 x subtree depth (paths rarely
            // all reach the bottom), matching ModelStats' convention.
            std::size_t tail = 0;
            std::vector<Frame> sub{{node, 0}};
            while (!sub.empty()) {
                auto [n2, d2] = sub.back();
                sub.pop_back();
                tail = std::max(tail, d2);
                if (!tree.IsLeaf(n2)) {
                    sub.push_back({tree.Left(n2), d2 + 1});
                    sub.push_back({tree.Right(n2), d2 + 1});
                }
            }
            prob_sum += p;
            weighted_tail += p * 0.9 * static_cast<double>(tail);
            continue;
        }
        stack.push_back({tree.Left(node), depth + 1});
        stack.push_back({tree.Right(node), depth + 1});
    }
}

}  // namespace

/** Cost model of the FPGA top levels plus the CPU tails. */
class HybridCostCard final : public CostCard {
 public:
    HybridCostCard(const FpgaSpec& fpga_spec, const PcieLink& link,
                   const FpgaOffloadParams& params, const CpuSpec& cpu_spec,
                   const ModelStats& stats, const RandomForest& forest)
        : fpga_spec_(fpga_spec),
          link_(link),
          params_(params),
          cpu_spec_(cpu_spec),
          stats_(stats),
          num_trees_(forest.NumTrees()),
          plan_(PlanFpgaPasses(fpga_spec, forest.NumTrees()))
    {
        const auto cut = static_cast<std::size_t>(fpga_spec.max_tree_depth);
        double prob_sum = 0.0;
        double weighted_tail = 0.0;
        for (const auto& tree : forest.trees()) {
            CollectContinuations(tree, cut, prob_sum, weighted_tail);
        }
        continuation_fraction_ =
            prob_sum / static_cast<double>(num_trees_);
        mean_tail_depth_ = prob_sum > 0.0 ? weighted_tail / prob_sum : 0.0;
    }

    OffloadBreakdown Estimate(std::size_t num_rows) const override;

    double continuation_fraction() const { return continuation_fraction_; }
    double mean_tail_depth() const { return mean_tail_depth_; }

 private:
    FpgaSpec fpga_spec_;
    PcieLink link_;
    FpgaOffloadParams params_;
    CpuSpec cpu_spec_;
    ModelStats stats_;
    std::size_t num_trees_;
    FpgaModelPlan plan_;
    double continuation_fraction_ = 0.0;
    double mean_tail_depth_ = 0.0;
};

OffloadBreakdown
HybridCostCard::Estimate(std::size_t num_rows) const
{
    const double n = static_cast<double>(num_rows);
    const double trees = static_cast<double>(num_trees_);
    const double passes = static_cast<double>(plan_.passes);

    OffloadBreakdown b;
    b.input_transfer = link_.TransferLatency(plan_.model_bytes);
    b.setup = params_.csr.WriteMany(
                  static_cast<std::uint64_t>(params_.setup_csr_writes)) *
              passes;

    // FPGA part: identical pipelining to the plain engine.
    SimTime fpga_compute = SimTime::Cycles(
        static_cast<double>(
            plan_.Cycles(fpga_spec_, num_rows, stats_.num_features)),
        fpga_spec_.clock_hz);

    // CPU part: finish the cut traversals and run the final vote. Uses
    // the sklearn-engine cost model at full thread count.
    const double model_bytes_cpu = static_cast<double>(
        stats_.total_nodes) * cpu_spec_.sklearn_node_bytes;
    const double miss = LlcMissFraction(
        model_bytes_cpu, static_cast<double>(cpu_spec_.llc_bytes),
        cpu_spec_.llc_miss_asymptote);
    const double per_node_ns = cpu_spec_.sklearn_per_node_ns +
                               miss * cpu_spec_.llc_miss_penalty_ns;
    const double vote_ns = 2.0;
    const double per_record_ns =
        trees * continuation_fraction_ * mean_tail_depth_ * per_node_ns +
        trees * vote_ns;
    const double efficiency = ThreadEfficiency(
        cpu_spec_.max_threads, cpu_spec_.sklearn_thread_exponent);
    SimTime cpu_compute =
        SimTime::Nanos(n * per_record_ns / efficiency);

    b.compute = fpga_compute + cpu_compute;
    b.completion_signal = params_.interrupt.latency * passes;

    // Partial results: one 4-byte word per (record, tree) comes back.
    const std::uint64_t result_bytes =
        static_cast<std::uint64_t>(num_rows) * num_trees_ * sizeof(float);
    const std::uint64_t chunks = std::max<std::uint64_t>(
        1, (result_bytes + fpga_spec_.result_buffer_bytes - 1) /
               fpga_spec_.result_buffer_bytes);
    b.result_transfer = link_.ChunkedTransferLatency(result_bytes, chunks);
    b.software_overhead = params_.software_overhead;
    return b;
}

HybridFpgaCpuEngine::HybridFpgaCpuEngine(const FpgaSpec& fpga_spec,
                                         const PcieLinkSpec& link_spec,
                                         const FpgaOffloadParams& params,
                                         const CpuSpec& cpu_spec)
    : fpga_spec_(fpga_spec),
      link_(link_spec),
      params_(params),
      cpu_spec_(cpu_spec)
{
}

const HybridCostCard&
HybridFpgaCpuEngine::Card() const
{
    return static_cast<const HybridCostCard&>(card());
}

std::unique_ptr<const CostCard>
HybridFpgaCpuEngine::MakeCostCard(const RandomForest& forest,
                                  const ModelStats& stats) const
{
    return std::make_unique<HybridCostCard>(fpga_spec_, link_, params_,
                                            cpu_spec_, stats, forest);
}

void
HybridFpgaCpuEngine::LoadModel(const TreeEnsemble& model,
                               const ModelStats& stats)
{
    RandomForest forest = model.ToForest();
    auto card = MakeCostCard(forest, stats);
    const auto cut = static_cast<std::size_t>(fpga_spec_.max_tree_depth);
    std::vector<TreeMemoryImage> images;
    images.reserve(forest.NumTrees());
    for (const auto& tree : forest.trees()) {
        images.push_back(LayoutTreeTop(tree, cut));
    }

    forest_ = std::move(forest);
    num_features_ = stats.num_features;
    images_ = std::move(images);
    set_card(std::move(card));
}

double
HybridFpgaCpuEngine::ContinuationFraction() const
{
    return Card().continuation_fraction();
}

double
HybridFpgaCpuEngine::MeanTailDepth() const
{
    return Card().mean_tail_depth();
}

ScoreResult
HybridFpgaCpuEngine::Score(const float* rows, std::size_t num_rows,
                           std::size_t num_cols)
{
    RequireLoaded();
    if (num_cols != num_features_) {
        throw InvalidArgument(Name() + ": row arity mismatch");
    }

    ScoreResult result;
    // Same offload shape as the pure FPGA engine: DMA in, device run
    // (setup before the walk, completion after), DMA out. The CPU tail
    // finish happens in-process and crosses no fault site.
    link_.CheckDmaFault();
    fault::CheckSite(fault::FaultSite::kFpgaSetup);
    result.predictions.resize(num_rows);
    const bool classify = forest_.task() == Task::kClassification;

    auto worker = [&](std::size_t begin, std::size_t end) {
        std::vector<int> votes;
        for (std::size_t r = begin; r < end; ++r) {
            const float* row = rows + r * num_cols;
            votes.clear();
            double sum = 0.0;
            for (std::size_t t = 0; t < images_.size(); ++t) {
                PartialWalkResult partial =
                    WalkTreeImagePartial(images_[t], row);
                float value = partial.continued
                    ? FinishTraversal(forest_.Tree(t),
                                      partial.resume_node, row)
                    : partial.value;
                if (classify) {
                    votes.push_back(static_cast<int>(std::lround(value)));
                } else {
                    sum += value;
                }
            }
            result.predictions[r] = classify
                ? static_cast<float>(
                      MajorityVote(votes, forest_.num_classes()))
                : static_cast<float>(
                      sum / static_cast<double>(images_.size()));
        }
    };
    if (num_rows >= 4096) {
        ThreadPool::Shared().ParallelForChunked(num_rows, worker);
    } else {
        worker(0, num_rows);
    }
    fault::CheckSite(fault::FaultSite::kFpgaCompletion);
    link_.CheckDmaFault();
    result.breakdown = Estimate(num_rows);
    TraceOffloadStages(result.breakdown);
    return result;
}

}  // namespace dbscore
