#include "dbscore/dbms/plan/rewrite.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "dbscore/common/string_util.h"

namespace dbscore::plan {

namespace {

/**
 * Rule 1a: derive a zone-map ScanPredicate from the pushable plain
 * predicates — numeric <, <=, >, >= or = comparisons on a feature
 * column of a paged table. The first one picks the column, and every
 * one on that column narrows the range, so `kin_0 > a AND kin_0 < b`
 * scans the pages that can hold (a, b), not every page above a; a
 * contradictory pair leaves the range empty, and the scan reads no
 * page. The row filter stays (zone maps prune at page granularity).
 * Each literal is rounded to float, the type of the values a page
 * holds: rounding is monotone, so a float that satisfies a comparison
 * with the literal satisfies it with the rounded literal too, and the
 * range stays a conservative superset. The range starts at ±infinity,
 * not at the largest finite floats: a literal past float range rounds
 * to an infinity, and `kin_0 >= 1e39` must still meet a page holding
 * an infinite cell rather than come out empty.
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
    std::optional<std::size_t> column;
    storage::ScanPredicate zone;
    zone.min = -std::numeric_limits<float>::infinity();
    zone.max = std::numeric_limits<float>::infinity();
    std::string pushed;
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
        if (column.has_value() && pred.column != *column) {
            continue;
        }
        column = pred.column;
        const float lit =
            static_cast<float>(ValueAsDouble(pred.literal));
        switch (pred.op) {
          case CompareOp::kGt:
          case CompareOp::kGe:
            zone.min = std::max(zone.min, lit);
            break;
          case CompareOp::kLt:
          case CompareOp::kLe:
            zone.max = std::min(zone.max, lit);
            break;
          case CompareOp::kEq:
            zone.min = std::max(zone.min, lit);
            zone.max = std::min(zone.max, lit);
            break;
          case CompareOp::kNe:
            break;
        }
        pushed += StrFormat("%s%s %s %g", pushed.empty() ? "" : " AND ",
                            plan.column_names[pred.column].c_str(),
                            CompareOpName(pred.op),
                            static_cast<double>(lit));
    }
    if (!column.has_value()) {
        return;
    }
    zone.column = *column - (*column > plan.label_col ? 1 : 0);
    scan->zone_predicate = zone;
    plan.applied_rules.push_back("zone-pushdown(" + pushed + ")");
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
 * Rule 2: TOP n ... ORDER BY SCORE(...) scores its rows in morsels
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
    RiseTopNThreshold(plan);
}

}  // namespace dbscore::plan
