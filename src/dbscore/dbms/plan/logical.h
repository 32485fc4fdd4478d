/**
 * @file
 * Logical query plans for the mini-DBMS SELECT pipeline.
 *
 * ParseSql produces a SelectStatement; BuildLogicalPlan resolves it
 * against a table's schema into an operator chain
 *
 *   Scan -> Filter -> Score -> FilterScore -> Project|Aggregate
 *        -> Sort -> Limit
 *
 * with SCORE(model, ...) expressions deduplicated into a resolved-score
 * list (features mapped to table column indices, the empty feature list
 * expanded to "all non-label columns in table order", the sp_score_model
 * convention). The chain is what the rule-based rewriter
 * (plan/rewrite.h) annotates — zone-map predicate pushdown,
 * SCORE-threshold pushdown, the TOP-N rising threshold — and what
 * EXEC sp_explain prints; execution happens in plan/physical.h.
 */
#ifndef DBSCORE_DBMS_PLAN_LOGICAL_H
#define DBSCORE_DBMS_PLAN_LOGICAL_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dbscore/dbms/sql.h"
#include "dbscore/dbms/table.h"

namespace dbscore::plan {

/** Operator kinds, bottom (kScan) to top (kLimit). */
enum class LogicalOpKind : std::uint8_t {
    kScan,         ///< read the table (optionally zone-mapped)
    kFilter,       ///< plain "col op literal" conjuncts
    kScore,        ///< compute SCORE(...) expressions
    kFilterScore,  ///< "SCORE(...) op literal" conjuncts
    kProject,      ///< select-list projection
    kAggregate,    ///< COUNT/SUM/AVG/MIN/MAX collapse
    kSort,         ///< ORDER BY
    kLimit,        ///< TOP n
};

const char* LogicalOpKindName(LogicalOpKind kind);

/**
 * One SCORE expression resolved against the table: features named (or
 * defaulted) in the statement become table column indices in the
 * model's feature order.
 */
struct ResolvedScore {
    /** Expression with the feature list made explicit. */
    ScoreExpr expr;
    /** Table column index of each model feature, model order. */
    std::vector<std::size_t> feature_cols;
};

/** "SCORE(scores[score_index]) op literal" conjunct. */
struct ScorePredicate {
    std::size_t score_index = 0;
    CompareOp op = CompareOp::kGt;
    /**
     * Comparison literal at float precision. SCORE predicates compare
     * the model's float32 prediction against the literal cast to
     * float, so the kernel's early-exit path and the naive
     * score-then-compare path agree bit for bit (DESIGN.md §14).
     */
    float literal = 0.0F;
    /** Rewriter: push the comparison into ForestKernel traversal. */
    bool early_exit = false;
};

/** One plain WHERE conjunct with its column resolved. */
struct ColumnPredicate {
    std::size_t column = 0;
    CompareOp op = CompareOp::kEq;
    Value literal;
};

/** A node in the logical operator chain. */
struct LogicalOp {
    LogicalOpKind kind = LogicalOpKind::kScan;
    /** The operator this one consumes; null for kScan. */
    std::unique_ptr<LogicalOp> input;

    // -- kScan --------------------------------------------------------
    /** Rewriter: zone-map page-pruning predicate (paged tables). */
    std::optional<storage::ScanPredicate> zone_predicate;

    // -- kFilter ------------------------------------------------------
    std::vector<ColumnPredicate> predicates;

    // -- kScore -------------------------------------------------------
    /** Indices into LogicalPlan::scores computed here. */
    std::vector<std::size_t> score_indices;

    // -- kFilterScore -------------------------------------------------
    std::vector<ScorePredicate> score_predicates;

    // -- kLimit -------------------------------------------------------
    /** Rewriter: TOP n ... ORDER BY SCORE scores its morsels against
     * the TOP-N heap's rising threshold. */
    bool rising_threshold = false;
};

/**
 * A resolved logical plan: the operator chain plus the statement it
 * came from and the deduplicated score expressions every layer indexes
 * into.
 */
struct LogicalPlan {
    /** The (validated) statement; projection/sort details live here. */
    SelectStatement stmt;
    /** Schema column names, for ToString. */
    std::vector<std::string> column_names;
    /** Table column index of the label column, or column count. */
    std::size_t label_col = 0;
    /** True when the scanned table is page-file backed. */
    bool table_paged = false;

    /** Deduplicated resolved SCORE expressions. */
    std::vector<ResolvedScore> scores;
    /** stmt.scores[i] -> scores index. */
    std::vector<std::size_t> select_score_map;
    /** stmt.aggregates[i] -> scores index (empty = plain aggregate). */
    std::vector<std::optional<std::size_t>> agg_score_map;
    /** ORDER BY SCORE(...) -> scores index. */
    std::optional<std::size_t> order_score;

    /** Top of the operator chain. */
    std::unique_ptr<LogicalOp> root;
    /** Rewrite-rule audit trail ("zone-pushdown(...)", ...). */
    std::vector<std::string> applied_rules;

    /** Finds the (single) op of @p kind, or null. */
    LogicalOp* Find(LogicalOpKind kind) const;

    /** Indented operator tree, top-down — explain / plan-shape tests. */
    std::string ToString() const;
};

/**
 * Resolves @p stmt against @p table into the canonical (unoptimized)
 * operator chain. Column and SCORE-feature names are validated here.
 *
 * @throws NotFound on unknown columns
 * @throws InvalidArgument when a SCORE feature names the label column
 *         or a VARCHAR or VARBINARY column, a SCORE literal is not
 *         numeric, or a plain WHERE literal's type cannot be compared
 *         with its column's declared type
 */
LogicalPlan BuildLogicalPlan(const SelectStatement& stmt,
                             const Table& table);

}  // namespace dbscore::plan

#endif  // DBSCORE_DBMS_PLAN_LOGICAL_H
