#include "dbscore/dbms/plan/logical.h"

#include <sstream>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"

namespace dbscore::plan {

const char*
LogicalOpKindName(LogicalOpKind kind)
{
    switch (kind) {
      case LogicalOpKind::kScan:
        return "Scan";
      case LogicalOpKind::kFilter:
        return "Filter";
      case LogicalOpKind::kScore:
        return "Score";
      case LogicalOpKind::kFilterScore:
        return "FilterScore";
      case LogicalOpKind::kProject:
        return "Project";
      case LogicalOpKind::kAggregate:
        return "Aggregate";
      case LogicalOpKind::kSort:
        return "Sort";
      case LogicalOpKind::kLimit:
        return "Limit";
    }
    return "?";
}

namespace {

/**
 * Resolves @p raw against the table and returns its index in
 * plan.scores, reusing an existing entry when the same (model,
 * feature-column) pair was already interned. A model reads numbers, so
 * a VARCHAR or VARBINARY feature fails here, whether or not the table
 * holds a row.
 */
std::size_t
InternScore(LogicalPlan& plan, const Table& table, const ScoreExpr& raw)
{
    const std::size_t label_col = table.LabelColumnIndex();
    ResolvedScore resolved;
    resolved.expr.model = raw.model;
    if (raw.features.empty()) {
        // The sp_score_model convention: every non-label column, in
        // table order.
        for (std::size_t c = 0; c < table.NumColumns(); ++c) {
            if (c != label_col) {
                resolved.feature_cols.push_back(c);
            }
        }
    } else {
        for (const std::string& name : raw.features) {
            const std::size_t c = table.ColumnIndex(name);
            if (c == label_col) {
                throw InvalidArgument(
                    "SCORE(" + raw.model + ", ...): feature '" + name +
                    "' is the label column of table " + table.name());
            }
            resolved.feature_cols.push_back(c);
        }
    }
    for (std::size_t c : resolved.feature_cols) {
        const ColumnDef& col = table.schema()[c];
        if (col.type == ColumnType::kString || col.type == ColumnType::kBlob) {
            throw InvalidArgument(StrFormat(
                "SCORE(%s, ...): feature %s is a %s column; a model reads "
                "INT and FLOAT columns",
                raw.model.c_str(), col.name.c_str(),
                ColumnTypeName(col.type)));
        }
        resolved.expr.features.push_back(col.name);
    }
    for (std::size_t i = 0; i < plan.scores.size(); ++i) {
        if (EqualsIgnoreCase(plan.scores[i].expr.model,
                             resolved.expr.model) &&
            plan.scores[i].feature_cols == resolved.feature_cols) {
            return i;
        }
    }
    plan.scores.push_back(std::move(resolved));
    return plan.scores.size() - 1;
}

/**
 * Rejects a plain-predicate literal that column @p col's declared type
 * cannot be compared with: numbers compare with INT and FLOAT columns,
 * strings with VARCHAR columns, nothing with VARBINARY. Checked at plan
 * time, so the statement fails the same way whether or not a row ever
 * reaches the comparison (a zone map or an earlier conjunct may stop
 * them all), and execution never compares incomparable values.
 */
void
CheckLiteralType(const Table& table, std::size_t col, const Value& literal)
{
    const ColumnType column = table.schema()[col].type;
    const ColumnType lit = TypeOf(literal);
    const bool numeric_lit =
        lit == ColumnType::kInt64 || lit == ColumnType::kDouble;
    const bool comparable =
        numeric_lit ? column == ColumnType::kInt64 ||
                          column == ColumnType::kDouble
                    : lit == ColumnType::kString &&
                          column == ColumnType::kString;
    if (!comparable) {
        throw InvalidArgument(StrFormat(
            "WHERE %s: a %s column cannot be compared with the %s "
            "literal %s",
            table.schema()[col].name.c_str(), ColumnTypeName(column),
            ColumnTypeName(lit), ValueToString(literal).c_str()));
    }
}

}  // namespace

LogicalOp*
LogicalPlan::Find(LogicalOpKind kind) const
{
    for (LogicalOp* op = root.get(); op != nullptr; op = op->input.get()) {
        if (op->kind == kind) {
            return op;
        }
    }
    return nullptr;
}

LogicalPlan
BuildLogicalPlan(const SelectStatement& stmt, const Table& table)
{
    LogicalPlan plan;
    plan.stmt = stmt;
    plan.column_names.reserve(table.NumColumns());
    for (const ColumnDef& col : table.schema()) {
        plan.column_names.push_back(col.name);
    }
    plan.label_col = table.LabelColumnIndex();
    plan.table_paged = table.paged();

    // Resolve every SCORE expression (dedup across clauses) and
    // validate every referenced column up front.
    plan.select_score_map.reserve(stmt.scores.size());
    for (const ScoreExpr& expr : stmt.scores) {
        plan.select_score_map.push_back(InternScore(plan, table, expr));
    }
    for (const std::string& name : stmt.columns) {
        (void)table.ColumnIndex(name);
    }

    std::vector<ColumnPredicate> predicates;
    std::vector<ScorePredicate> score_predicates;
    for (const WhereClause& clause : stmt.where) {
        if (clause.score.has_value()) {
            ScorePredicate pred;
            pred.score_index = InternScore(plan, table, *clause.score);
            pred.op = clause.op;
            pred.literal =
                static_cast<float>(ValueAsDouble(clause.literal));
            score_predicates.push_back(pred);
        } else {
            const std::size_t col = table.ColumnIndex(clause.column);
            CheckLiteralType(table, col, clause.literal);
            predicates.push_back({col, clause.op, clause.literal});
        }
    }

    plan.agg_score_map.reserve(stmt.aggregates.size());
    for (const AggregateItem& item : stmt.aggregates) {
        if (item.score.has_value()) {
            plan.agg_score_map.push_back(
                InternScore(plan, table, *item.score));
        } else {
            if (!item.column.empty()) {
                (void)table.ColumnIndex(item.column);
            }
            plan.agg_score_map.push_back(std::nullopt);
        }
    }

    if (stmt.order_by.has_value()) {
        if (stmt.order_by->score.has_value()) {
            plan.order_score =
                InternScore(plan, table, *stmt.order_by->score);
        } else {
            (void)table.ColumnIndex(stmt.order_by->column);
        }
    }

    // Assemble the canonical chain bottom-up.
    auto node = std::make_unique<LogicalOp>();
    node->kind = LogicalOpKind::kScan;

    if (!predicates.empty()) {
        auto filter = std::make_unique<LogicalOp>();
        filter->kind = LogicalOpKind::kFilter;
        filter->predicates = std::move(predicates);
        filter->input = std::move(node);
        node = std::move(filter);
    }
    if (!plan.scores.empty()) {
        auto score = std::make_unique<LogicalOp>();
        score->kind = LogicalOpKind::kScore;
        for (std::size_t i = 0; i < plan.scores.size(); ++i) {
            score->score_indices.push_back(i);
        }
        score->input = std::move(node);
        node = std::move(score);
    }
    if (!score_predicates.empty()) {
        auto filter = std::make_unique<LogicalOp>();
        filter->kind = LogicalOpKind::kFilterScore;
        filter->score_predicates = std::move(score_predicates);
        filter->input = std::move(node);
        node = std::move(filter);
    }
    if (!stmt.aggregates.empty()) {
        auto agg = std::make_unique<LogicalOp>();
        agg->kind = LogicalOpKind::kAggregate;
        agg->input = std::move(node);
        node = std::move(agg);
        // Aggregates collapse to one row; ORDER BY / TOP are inert
        // (the pre-planner executor ignored them the same way).
    } else {
        auto project = std::make_unique<LogicalOp>();
        project->kind = LogicalOpKind::kProject;
        project->input = std::move(node);
        node = std::move(project);
        if (stmt.order_by.has_value()) {
            auto sort = std::make_unique<LogicalOp>();
            sort->kind = LogicalOpKind::kSort;
            sort->input = std::move(node);
            node = std::move(sort);
        }
        if (stmt.top.has_value()) {
            auto limit = std::make_unique<LogicalOp>();
            limit->kind = LogicalOpKind::kLimit;
            limit->input = std::move(node);
            node = std::move(limit);
        }
    }
    plan.root = std::move(node);
    return plan;
}

namespace {

std::string
AggregateLabel(const LogicalPlan& plan, std::size_t index)
{
    const AggregateItem& item = plan.stmt.aggregates[index];
    std::string arg;
    if (plan.agg_score_map[index].has_value()) {
        arg = ScoreExprToString(
            plan.scores[*plan.agg_score_map[index]].expr);
    } else {
        arg = item.column.empty() ? "*" : item.column;
    }
    return std::string(AggFuncName(item.func)) + "(" + arg + ")";
}

void
AppendOp(const LogicalPlan& plan, const LogicalOp& op, int depth,
         std::ostringstream& os)
{
    os << std::string(static_cast<std::size_t>(depth) * 2, ' ')
       << LogicalOpKindName(op.kind) << "(";
    switch (op.kind) {
      case LogicalOpKind::kScan: {
        os << plan.stmt.table;
        if (op.zone_predicate.has_value()) {
            // ScanPredicate columns index the feature layout (label
            // excluded); map back to the schema for display.
            std::size_t c = op.zone_predicate->column;
            c += (c >= plan.label_col ? 1 : 0);
            os << StrFormat(" zone=[%s in [%g, %g]]",
                            plan.column_names[c].c_str(),
                            op.zone_predicate->min,
                            op.zone_predicate->max);
        }
        if (plan.table_paged) {
            os << " paged";
        }
        break;
      }
      case LogicalOpKind::kFilter:
        for (std::size_t i = 0; i < op.predicates.size(); ++i) {
            const ColumnPredicate& pred = op.predicates[i];
            os << (i > 0 ? " AND " : "")
               << plan.column_names[pred.column] << " "
               << CompareOpName(pred.op) << " "
               << ValueToString(pred.literal);
        }
        break;
      case LogicalOpKind::kScore:
        for (std::size_t i = 0; i < op.score_indices.size(); ++i) {
            os << (i > 0 ? ", " : "")
               << ScoreExprToString(
                      plan.scores[op.score_indices[i]].expr);
        }
        break;
      case LogicalOpKind::kFilterScore:
        for (std::size_t i = 0; i < op.score_predicates.size(); ++i) {
            const ScorePredicate& pred = op.score_predicates[i];
            os << (i > 0 ? " AND " : "")
               << ScoreExprToString(plan.scores[pred.score_index].expr)
               << " " << CompareOpName(pred.op)
               << StrFormat(" %g", pred.literal);
            if (pred.early_exit) {
                os << " [early-exit]";
            }
        }
        break;
      case LogicalOpKind::kProject:
        if (plan.stmt.star) {
            os << "*";
        } else {
            for (std::size_t i = 0; i < plan.stmt.items.size(); ++i) {
                const SelectItemRef& ref = plan.stmt.items[i];
                os << (i > 0 ? ", " : "");
                if (ref.kind == SelectItemKind::kScore) {
                    os << ScoreExprToString(
                        plan.scores[plan.select_score_map[ref.index]]
                            .expr);
                } else {
                    os << plan.stmt.columns[ref.index];
                }
            }
        }
        break;
      case LogicalOpKind::kAggregate:
        for (std::size_t i = 0; i < plan.stmt.aggregates.size(); ++i) {
            os << (i > 0 ? ", " : "") << AggregateLabel(plan, i);
        }
        break;
      case LogicalOpKind::kSort:
        if (plan.order_score.has_value()) {
            os << ScoreExprToString(plan.scores[*plan.order_score].expr);
        } else {
            os << plan.stmt.order_by->column;
        }
        os << (plan.stmt.order_by->descending ? " desc" : " asc");
        break;
      case LogicalOpKind::kLimit:
        os << "top=" << *plan.stmt.top;
        break;
    }
    os << ")";
    if (op.kind == LogicalOpKind::kLimit && op.rising_threshold) {
        os << " [rising-threshold]";
    }
    os << "\n";
    if (op.input != nullptr) {
        AppendOp(plan, *op.input, depth + 1, os);
    }
}

}  // namespace

std::string
LogicalPlan::ToString() const
{
    std::ostringstream os;
    if (root != nullptr) {
        AppendOp(*this, *root, 0, os);
    }
    return os.str();
}

}  // namespace dbscore::plan
