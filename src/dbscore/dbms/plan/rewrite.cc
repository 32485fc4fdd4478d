#include "dbscore/dbms/plan/rewrite.h"

#include <limits>
#include <sstream>

#include "dbscore/common/string_util.h"

namespace dbscore::plan {

namespace {

/**
 * Rule 1a: derive a zone-map ScanPredicate from the first pushable
 * plain predicate — a numeric comparison on a feature column of a
 * paged table. The row filter stays (zone maps prune at page
 * granularity); the derived range is a conservative superset.
 */
void
PushZonePredicate(LogicalPlan& plan)
{
    LogicalOp* scan = plan.Find(LogicalOpKind::kScan);
    LogicalOp* filter = plan.Find(LogicalOpKind::kFilter);
    if (scan == nullptr || filter == nullptr || !plan.table_paged ||
        scan->zone_predicate.has_value()) {
        return;
    }
    for (const ColumnPredicate& pred : filter->predicates) {
        if (pred.column == plan.label_col) {
            continue;  // zone maps cover feature columns only
        }
        const ColumnType type = TypeOf(pred.literal);
        if (type != ColumnType::kInt64 && type != ColumnType::kDouble) {
            continue;
        }
        if (pred.op == CompareOp::kNe) {
            continue;  // excludes a point: no useful page range
        }
        const float lit =
            static_cast<float>(ValueAsDouble(pred.literal));
        storage::ScanPredicate zone;
        zone.column =
            pred.column - (pred.column > plan.label_col ? 1 : 0);
        zone.min = std::numeric_limits<float>::lowest();
        zone.max = std::numeric_limits<float>::max();
        switch (pred.op) {
          case CompareOp::kGt:
          case CompareOp::kGe:
            zone.min = lit;
            break;
          case CompareOp::kLt:
          case CompareOp::kLe:
            zone.max = lit;
            break;
          case CompareOp::kEq:
            zone.min = zone.max = lit;
            break;
          case CompareOp::kNe:
            break;
        }
        scan->zone_predicate = zone;
        plan.applied_rules.push_back(StrFormat(
            "zone-pushdown(%s %s %g)",
            plan.column_names[pred.column].c_str(),
            CompareOpName(pred.op), static_cast<double>(lit)));
        return;
    }
}

/**
 * Rule 1b: mark ordered SCORE predicates whose score value the query
 * never projects, sorts by, or aggregates — those comparisons run
 * through ForestKernel::PredictThreshold, which early-exits tree
 * accumulation once suffix bounds decide the outcome.
 */
void
PushScoreThresholds(LogicalPlan& plan)
{
    LogicalOp* filter = plan.Find(LogicalOpKind::kFilterScore);
    if (filter == nullptr) {
        return;
    }
    std::vector<bool> value_needed(plan.scores.size(), false);
    for (std::size_t s : plan.select_score_map) {
        value_needed[s] = true;
    }
    for (const auto& s : plan.agg_score_map) {
        if (s.has_value()) {
            value_needed[*s] = true;
        }
    }
    if (plan.order_score.has_value()) {
        value_needed[*plan.order_score] = true;
    }
    for (ScorePredicate& pred : filter->score_predicates) {
        const bool ordered =
            pred.op == CompareOp::kLt || pred.op == CompareOp::kLe ||
            pred.op == CompareOp::kGt || pred.op == CompareOp::kGe;
        if (!ordered || value_needed[pred.score_index]) {
            continue;
        }
        pred.early_exit = true;
        plan.applied_rules.push_back(StrFormat(
            "score-threshold-pushdown(%s %s %g)",
            ScoreExprToString(plan.scores[pred.score_index].expr)
                .c_str(),
            CompareOpName(pred.op),
            static_cast<double>(pred.literal)));
    }
}

/**
 * Rule 2: aggregates over a scored stream fold into the scoring loop —
 * running accumulators per chunk, no materialized score column.
 */
void
FuseScoreAggregates(LogicalPlan& plan)
{
    LogicalOp* agg = plan.Find(LogicalOpKind::kAggregate);
    if (agg == nullptr || plan.scores.empty() || agg->fused) {
        return;
    }
    std::ostringstream rule;
    rule << "score-aggregate-fusion(";
    for (std::size_t i = 0; i < plan.stmt.aggregates.size(); ++i) {
        const AggregateItem& item = plan.stmt.aggregates[i];
        rule << (i > 0 ? ", " : "") << AggFuncName(item.func);
        (void)item;
    }
    rule << ")";
    agg->fused = true;
    plan.applied_rules.push_back(rule.str());
}

/**
 * Rule 3: TOP n ... ORDER BY SCORE(...) scores its rows in morsels
 * against a threshold that only rises, the worst key a full TOP-N heap
 * keeps. The physical plan withdraws the rule when the order score's
 * kernel cannot decide a row before its last tree.
 */
void
RiseTopNThreshold(LogicalPlan& plan)
{
    LogicalOp* limit = plan.Find(LogicalOpKind::kLimit);
    if (limit == nullptr || !plan.order_score.has_value() ||
        *plan.stmt.top == 0) {
        return;
    }
    limit->rising_threshold = true;
    plan.applied_rules.push_back(StrFormat(
        "%s(%s %s, %zu)", kRisingThresholdRule,
        ScoreExprToString(plan.scores[*plan.order_score].expr).c_str(),
        plan.stmt.order_by->descending ? "DESC" : "ASC", *plan.stmt.top));
}

}  // namespace

void
RewritePlan(LogicalPlan& plan)
{
    PushZonePredicate(plan);
    PushScoreThresholds(plan);
    FuseScoreAggregates(plan);
    RiseTopNThreshold(plan);
}

}  // namespace dbscore::plan
