/**
 * @file
 * Physical plans: a compiled, executable form of a rewritten logical
 * plan.
 *
 * Compilation front-loads everything expensive and reusable — the
 * stored model is loaded from the database, deserialized, rebuilt as a
 * RandomForest, and compiled into one ForestKernel per SCORE (which
 * both scores values and early-exits pushed-down SCORE thresholds) —
 * so a plan served from the LRU plan cache
 * (plan/plan_cache.h) skips the whole LoadModel -> ToForest -> Kernel
 * chain on every subsequent execution.
 *
 * Execution is one streaming loop of morsels for every SELECT: scan,
 * plain filter, score, sink. A statement without SCORE is a plan with
 * zero scores and runs the same loop. The scan walks a paged table's
 * pages through the zone map (pinning each page once), or row ids in
 * 1024-row slices when the table is in memory or the statement reads
 * no feature column (COUNT(*) alone, or only the label). Plain
 * predicates run first, then SCORE predicates over the compacted
 * survivors (early-exit kernel when the rewriter pushed the threshold
 * down), and aggregates fold into the loop without materializing a
 * score column. Paged survivors are copied into morsels: the
 * survivors of several consecutive pages, scored by one kernel call,
 * while the scan still holds one page pin at a time; a paged label is
 * read through a copy of its label page, pinned once. An in-memory
 * slice is a zero-copy view of the table's cached feature block when a
 * score reads every feature column in table order, else a block of the
 * score's own columns over just that slice's rows, converted when the
 * slice is scored. TOP n ... ORDER BY keeps a bounded heap of
 * n rows keyed by (sort key, scan order), so only rows that enter it
 * are projected (DESIGN.md §14). Under the rising-threshold rule, a
 * TOP n ... ORDER BY SCORE morsel offered once the heap is full first
 * keeps only the rows whose order score beats the heap's worst key at
 * that moment. Plain-predicate literals and SCORE feature columns were
 * type-checked at plan time (BuildLogicalPlan), so the filter itself
 * never throws and a SCORE reads numbers only.
 *
 * Execution splits into a score step (SCORE predicates and values
 * over one batch, touching no statement state) and a sink step
 * (aggregates, TOP-N heap, projected rows, early-exit counters). A
 * statement offers each morsel to ThreadPool::Shared() and keeps
 * walking; it sinks morsels in scan order once more than twice the
 * pool's size are in flight, scoring any morsel no worker has started,
 * so it never waits on work queued behind other tasks. TOP n without
 * ORDER BY scores each morsel inline: it must not pin a page past the
 * one holding its n-th row, though a miss may read up to one run of
 * pages ahead (storage/buffer_pool.h), which no pin of its own fails.
 * A plan without SCORE has nothing to offer the pool and sinks each
 * morsel as it closes.
 *
 * Executing a rewritten plan is bit-identical to executing the naive
 * plan of the same statement: pushdown and the rising threshold change
 * how much work runs, never the result (DESIGN.md §14).
 */
#ifndef DBSCORE_DBMS_PLAN_PHYSICAL_H
#define DBSCORE_DBMS_PLAN_PHYSICAL_H

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dbscore/dbms/database.h"
#include "dbscore/dbms/plan/logical.h"
#include "dbscore/dbms/query_result.h"
#include "dbscore/forest/forest.h"

namespace dbscore::plan {

/**
 * "score op literal" at float32 precision — the SCORE-predicate
 * semantics both the early-exit kernel path and the naive
 * score-then-compare path implement, so optimized and naive plans are
 * bit-identical even for literals that are not exactly representable
 * as float (DESIGN.md §14). sp_serve_query applies it to served
 * predictions.
 */
bool ScorePredHolds(CompareOp op, float value, float literal);

/** One SCORE expression compiled against its stored model. */
struct CompiledScore {
    /** Resolved expression (explicit feature list). */
    ScoreExpr expr;
    /** Table column index per model feature, model order. */
    std::vector<std::size_t> feature_cols;
    /** Same, in the feature layout (label excluded) of scans. */
    std::vector<std::size_t> feature_idx;
    /** feature_idx == [0, k): a paged morsel's strided column-prefix
     * view suffices. */
    bool identity_prefix = false;
    /** feature_idx covers every feature column, in table order: an
     * in-memory scan reads the table's cached feature block. */
    bool covers_all = false;

    /** The deserialized model (always a RandomForest; a GBDT is stored
     * as its exported ensemble, a regression forest whose mean is the
     * boosted margin). */
    std::shared_ptr<const RandomForest> model;
    /** Compiled inference plan; null when the kernel can't compile
     * this model (execution falls back to the scalar reference). */
    std::shared_ptr<const ForestKernel> kernel;
    /** Alias of @ref kernel when a SCORE predicate on this expression
     * early-exits through it (else null); kept for callers that
     * replay a plan's kernel calls outside Execute. */
    std::shared_ptr<const ForestKernel> threshold_kernel;
};

/**
 * The scan + plain-filter prefix of a scored plan, materialized as a
 * serving payload: survivors' model features plus their row ids. How
 * sp_serve_query hands a SQL-shaped request to the ScoringService.
 */
struct ScoringBatch {
    /** Model named by the plan's (single) SCORE expression. */
    std::string model;
    /** survivors x model-features block (service request payload). */
    RowBlock features;
    /** Global row id of each batch row. */
    std::vector<std::size_t> row_ids;
};

/** A compiled, immutable, shareable plan. Thread-safe to Execute. */
class PhysicalPlan {
 public:
    /**
     * Compiles @p logical: loads + compiles every referenced model.
     * @throws NotFound when a model is missing
     * @throws InvalidArgument on feature-arity mismatches
     */
    PhysicalPlan(LogicalPlan logical, const Database& db);

    /** Runs the plan against the current table contents. */
    QueryResult Execute(const Database& db) const;

    /**
     * Runs the scan + plain-filter prefix and gathers the survivors'
     * model features (plans with exactly one SCORE expression).
     * SCORE predicates / sort / aggregation are left to the caller —
     * the serving layer computes predictions remotely.
     * @throws InvalidArgument unless exactly one SCORE is present
     */
    ScoringBatch CollectScoringBatch(const Database& db) const;

    const LogicalPlan& logical() const { return logical_; }
    const std::vector<CompiledScore>& scores() const { return scores_; }
    /** SCORE predicates in WHERE order (empty for plain plans). */
    const std::vector<ScorePredicate>& score_predicates() const
    {
        return score_preds_;
    }

    /** Cumulative early-exit work accounting across Execute calls. */
    ThresholdStats threshold_stats() const;

    /** Physical annotation lines for EXEC sp_explain. */
    std::vector<std::string> ExplainPhysical() const;

 private:
    class LabelReader;

    /**
     * Whether row @p r of @p table passes every plain predicate; a
     * paged row's features are @p feats and its label comes from
     * @p labels. The one WHERE check behind Execute and
     * CollectScoringBatch.
     */
    bool PassesPlain(const Table& table, std::size_t r, const float* feats,
                     LabelReader& labels) const;

    LogicalPlan logical_;
    std::vector<CompiledScore> scores_;

    // Flattened annotations (mirrors of the logical chain, resolved
    // once at compile time).
    std::vector<ColumnPredicate> plain_preds_;
    std::vector<ScorePredicate> score_preds_;
    std::optional<storage::ScanPredicate> zone_predicate_;
    /** TOP n ... ORDER BY SCORE against the heap's rising threshold. */
    bool rising_threshold_ = false;

    mutable std::mutex stats_mutex_;
    mutable ThresholdStats threshold_stats_;
};

}  // namespace dbscore::plan

#endif  // DBSCORE_DBMS_PLAN_PHYSICAL_H
