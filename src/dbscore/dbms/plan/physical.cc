#include "dbscore/dbms/plan/physical.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/dbms/plan/rewrite.h"
#include "dbscore/forest/onnx_like.h"
#include "dbscore/trace/trace.h"

namespace dbscore::plan {

namespace {

/** CompareOp -> kernel ThresholdOp (ordered comparisons only). */
std::optional<ThresholdOp>
ToThresholdOp(CompareOp op)
{
    switch (op) {
      case CompareOp::kGt:
        return ThresholdOp::kGt;
      case CompareOp::kGe:
        return ThresholdOp::kGe;
      case CompareOp::kLt:
        return ThresholdOp::kLt;
      case CompareOp::kLe:
        return ThresholdOp::kLe;
      case CompareOp::kEq:
      case CompareOp::kNe:
        return std::nullopt;
    }
    return std::nullopt;
}

/**
 * CompareValues(Value(v), literal) for a numeric literal without
 * building a Value: the same ordering, NaN comparing equal. Paged
 * columns are FLOAT, so plan time admitted only numeric literals.
 */
int
CompareToLiteral(double v, const Value& literal)
{
    const double* d = std::get_if<double>(&literal);
    const double lit =
        d != nullptr ? *d
                     : static_cast<double>(std::get<std::int64_t>(literal));
    if (v < lit) {
        return -1;
    }
    return v > lit ? 1 : 0;
}

/**
 * Compacting gather from @p src into @p scratch: row subset (@p rows
 * null = all), column subset (@p cols null = all of src's columns).
 * Returns a borrowing view over @p scratch — valid until the next
 * gather into the same scratch. Counted as a feature-storage copy.
 */
RowView
Gather(const RowView& src, const std::uint32_t* rows, std::size_t num_rows,
       const std::size_t* cols, std::size_t num_cols,
       std::vector<float>& scratch)
{
    const std::size_t width = cols != nullptr ? num_cols : src.cols();
    scratch.resize(num_rows * width);
    float* out = scratch.data();
    for (std::size_t i = 0; i < num_rows; ++i) {
        const float* row =
            src.Row(rows != nullptr ? rows[i] : i);
        if (cols != nullptr) {
            for (std::size_t j = 0; j < width; ++j) {
                out[j] = row[cols[j]];
            }
        } else {
            std::copy(row, row + width, out);
        }
        out += width;
    }
    RowBlock::NoteCopy(static_cast<std::uint64_t>(num_rows) * width *
                       sizeof(float));
    return RowView::Borrow(scratch.data(), num_rows, width);
}

}  // namespace

bool
ScorePredHolds(CompareOp op, float value, float literal)
{
    switch (op) {
      case CompareOp::kEq:
        return value == literal;
      case CompareOp::kNe:
        return value != literal;
      case CompareOp::kLt:
        return value < literal;
      case CompareOp::kLe:
        return value <= literal;
      case CompareOp::kGt:
        return value > literal;
      case CompareOp::kGe:
        return value >= literal;
    }
    return false;
}

PhysicalPlan::PhysicalPlan(LogicalPlan logical, const Database& db)
    : logical_(std::move(logical))
{
    if (const LogicalOp* op = logical_.Find(LogicalOpKind::kFilter)) {
        plain_preds_ = op->predicates;
    }
    if (const LogicalOp* op = logical_.Find(LogicalOpKind::kFilterScore)) {
        score_preds_ = op->score_predicates;
    }
    if (const LogicalOp* op = logical_.Find(LogicalOpKind::kScan)) {
        zone_predicate_ = op->zone_predicate;
    }

    const std::size_t label_col = logical_.label_col;
    const std::size_t num_cols = logical_.column_names.size();
    const std::size_t num_features =
        num_cols - (label_col < num_cols ? 1 : 0);

    scores_.reserve(logical_.scores.size());
    for (std::size_t s = 0; s < logical_.scores.size(); ++s) {
        const ResolvedScore& rs = logical_.scores[s];
        CompiledScore cs;
        cs.expr = rs.expr;
        cs.feature_cols = rs.feature_cols;
        cs.feature_idx.reserve(rs.feature_cols.size());
        for (std::size_t c : rs.feature_cols) {
            cs.feature_idx.push_back(c - (c > label_col ? 1 : 0));
        }
        cs.identity_prefix = true;
        for (std::size_t j = 0; j < cs.feature_idx.size(); ++j) {
            if (cs.feature_idx[j] != j) {
                cs.identity_prefix = false;
                break;
            }
        }
        cs.covers_all = cs.identity_prefix &&
                        cs.feature_idx.size() == num_features;

        // The expensive part the plan cache amortizes: blob ->
        // TreeEnsemble -> RandomForest -> compiled kernel.
        TreeEnsemble ensemble = db.LoadModel(cs.expr.model);
        auto model = std::make_shared<RandomForest>(ensemble.ToForest());
        if (model->num_features() != cs.feature_cols.size()) {
            throw InvalidArgument(StrFormat(
                "SCORE(%s): model expects %zu feature(s), expression "
                "provides %zu",
                cs.expr.model.c_str(), model->num_features(),
                cs.feature_cols.size()));
        }
        if (ForestKernel::Supports(*model)) {
            cs.kernel = model->Kernel();
        }
        for (const ScorePredicate& pred : score_preds_) {
            if (pred.score_index == s && pred.early_exit &&
                cs.kernel != nullptr &&
                cs.kernel->SupportsThresholdEarlyExit()) {
                cs.threshold_kernel = cs.kernel;
            }
        }
        cs.model = std::move(model);
        scores_.push_back(std::move(cs));
    }

    // Rule 2 pays only when the order score's kernel can decide a row
    // before its last tree: an accumulate combiner over more than one
    // checkpoint of trees. Otherwise the plan withdraws the rule.
    if (LogicalOp* limit = logical_.Find(LogicalOpKind::kLimit);
        limit != nullptr && limit->rising_threshold) {
        const ForestKernel* kernel =
            scores_[*logical_.order_score].kernel.get();
        rising_threshold_ = kernel != nullptr &&
                            kernel->SupportsThresholdEarlyExit() &&
                            kernel->NumTrees() > kThresholdCheckTrees;
        if (!rising_threshold_) {
            limit->rising_threshold = false;
            std::erase_if(logical_.applied_rules, [](const std::string& r) {
                return r.starts_with(kRisingThresholdRule);
            });
        }
    }
}

namespace {

/** Running state of one streaming aggregate. */
struct AggState {
    double sum = 0.0;
    std::optional<Value> best;
};

/** Survivors that flush a paged morsel, and rows per slice: 16 of the
 * kernel's 64-row groups. */
constexpr std::size_t kMorselRows = 1024;

/** A row ranked by ORDER BY: its key, its scan order, its output. */
struct Ranked {
    Value key;
    std::size_t seq = 0;
    std::vector<Value> row;
};

/**
 * What the score step hands the sink: the batch rows that pass every
 * SCORE predicate, the values of each score the sink reads (one per
 * passing row; empty for the others), and the early-exit work spent.
 */
struct Scored {
    std::vector<std::uint32_t> live;
    std::vector<std::vector<float>> vals;
    ThresholdStats stats;
};

/**
 * A morsel, scored by a pool worker or by the statement thread
 * (DESIGN.md §14): the @p count plain-predicate survivors of
 * consecutive pages, copied off their pages with their labels when the
 * sink reads the label, or a slice of table rows [first, first +
 * count) with its plain-predicate survivors: zero-copy in memory, and
 * with its rows' labels on a paged table when the sink reads the label.
 */
struct Morsel {
    std::vector<float> feats;
    std::vector<float> labels;
    std::size_t width = 0;
    std::size_t first = 0;
    std::size_t count = 0;
    /** Batch rows that passed the plain predicates. */
    std::vector<std::uint32_t> live;
    /** The TOP-N heap's rising threshold when the morsel was offered. */
    std::optional<ScorePredicate> cut;
    Scored scored;
    /** Declared last so it is destroyed first: a worker scoring this
     * morsel finishes before the rows it reads go away. */
    std::optional<ClaimableTask> task;

    /** The paged survivors' feature rows; empty for a slice. */
    RowView
    View() const
    {
        return RowView::Borrow(feats.data(), feats.empty() ? 0 : count,
                               width);
    }
};

void
AddStats(ThresholdStats& total, const ThresholdStats& part)
{
    total.rows += part.rows;
    total.rows_decided_early += part.rows_decided_early;
    total.tree_traversals += part.tree_traversals;
    total.tree_traversals_full += part.tree_traversals_full;
}

}  // namespace

/**
 * A paged table's labels, read a page at a time: rows visited in order
 * pin each label page once, and no pin is held between rows.
 */
class PhysicalPlan::LabelReader {
 public:
    explicit LabelReader(const Table& table) : store_(table.store().get())
    {
    }

    float
    At(std::size_t row)
    {
        if (row < first_ || row - first_ >= page_.size()) {
            first_ = static_cast<std::size_t>(
                store_->CopyLabelPage(row, page_));
        }
        return page_[row - first_];
    }

 private:
    const storage::PagedTable* store_;
    std::vector<float> page_;
    std::size_t first_ = 0;
};

bool
PhysicalPlan::PassesPlain(const Table& table, std::size_t r,
                          const float* feats, LabelReader& labels) const
{
    const std::size_t label_col = logical_.label_col;
    for (const ColumnPredicate& pred : plain_preds_) {
        int cmp;
        if (!table.paged()) {
            cmp = CompareValues(table.At(r, pred.column), pred.literal);
        } else if (pred.column == label_col) {
            cmp = CompareToLiteral(labels.At(r), pred.literal);
        } else {
            cmp = CompareToLiteral(
                feats[pred.column - (pred.column > label_col ? 1 : 0)],
                pred.literal);
        }
        if (!EvalCompareOp(pred.op, cmp)) {
            return false;
        }
    }
    return true;
}

QueryResult
PhysicalPlan::Execute(const Database& db) const
{
    const Table& table = db.GetTable(logical_.stmt.table);
    const SelectStatement& stmt = logical_.stmt;
    const std::size_t label_col = logical_.label_col;
    const bool paged = table.paged();
    auto feature_index = [label_col](std::size_t col) {
        return col - (col > label_col ? 1 : 0);
    };

    // Which scores must produce values (vs predicate-only scores the
    // rewriter may have pushed into the kernel).
    std::vector<bool> value_needed(scores_.size(), false);
    for (std::size_t s : logical_.select_score_map) {
        value_needed[s] = true;
    }
    for (const auto& s : logical_.agg_score_map) {
        if (s.has_value()) {
            value_needed[*s] = true;
        }
    }
    if (logical_.order_score.has_value()) {
        value_needed[*logical_.order_score] = true;
    }

    // The table's cached feature block, for in-memory scores that read
    // every feature column in table order. Any other in-memory score
    // converts just its own columns of each slice it scores, so a
    // column no score reads, or a row no slice reaches, is never
    // converted to a number.
    RowView mem_features;
    if (!paged && std::any_of(scores_.begin(), scores_.end(),
                              [](const CompiledScore& cs) {
                                  return cs.covers_all;
                              })) {
        mem_features = table.MaterializeFeatures().View();
    }

    // Projection layout (non-aggregate statements).
    QueryResult result;
    std::vector<std::size_t> agg_cols(stmt.aggregates.size(),
                                      table.NumColumns());
    struct ProjItem {
        bool is_score = false;
        std::size_t index = 0;  // score index or table column
    };
    std::vector<ProjItem> proj;
    if (stmt.aggregates.empty()) {
        if (stmt.star) {
            for (std::size_t c = 0; c < table.NumColumns(); ++c) {
                proj.push_back({false, c});
                result.columns.push_back(table.schema()[c].name);
            }
        } else {
            for (const SelectItemRef& ref : stmt.items) {
                if (ref.kind == SelectItemKind::kScore) {
                    const std::size_t s =
                        logical_.select_score_map[ref.index];
                    proj.push_back({true, s});
                    result.columns.push_back(
                        ScoreExprToString(scores_[s].expr));
                } else {
                    proj.push_back(
                        {false,
                         table.ColumnIndex(stmt.columns[ref.index])});
                    result.columns.push_back(stmt.columns[ref.index]);
                }
            }
        }
    } else {
        for (std::size_t a = 0; a < stmt.aggregates.size(); ++a) {
            const AggregateItem& item = stmt.aggregates[a];
            std::string arg;
            if (logical_.agg_score_map[a].has_value()) {
                arg = ScoreExprToString(
                    scores_[*logical_.agg_score_map[a]].expr);
            } else {
                arg = item.column.empty() ? "*" : item.column;
                if (!item.column.empty()) {
                    agg_cols[a] = table.ColumnIndex(item.column);
                }
            }
            result.columns.push_back(
                std::string(AggFuncName(item.func)) + "(" + arg + ")");
        }
    }
    const std::size_t order_col =
        (stmt.order_by.has_value() && !logical_.order_score.has_value())
            ? table.ColumnIndex(stmt.order_by->column)
            : table.NumColumns();
    // TOP n without ORDER BY stops the scan once n rows are out.
    const bool top_stops = stmt.aggregates.empty() &&
                           !stmt.order_by.has_value() &&
                           stmt.top.has_value();
    // A paged statement that reads no feature column (COUNT(*) alone,
    // or only the label) walks row ids, not its feature pages. When its
    // sink reads the label, the walk reads each label it carries once,
    // through the filter's LabelReader: a page walk carries its
    // survivors' labels, a row-id slice the labels of all its rows.
    auto is_feature = [&](std::size_t col) {
        return col < table.NumColumns() && col != label_col;
    };
    const bool paged_label = paged && label_col < table.NumColumns();
    bool reads_features = !scores_.empty();
    bool carry_labels = false;
    auto sink_reads = [&](std::size_t col) {
        reads_features = reads_features || is_feature(col);
        carry_labels = carry_labels || (paged_label && col == label_col);
    };
    sink_reads(order_col);
    for (const ProjItem& item : proj) {
        if (!item.is_score) {
            sink_reads(item.index);
        }
    }
    for (std::size_t a = 0; a < agg_cols.size(); ++a) {
        if (stmt.aggregates[a].func != AggFunc::kCount) {
            sink_reads(agg_cols[a]);
        }
    }
    for (const ColumnPredicate& pred : plain_preds_) {
        reads_features = reads_features || is_feature(pred.column);
    }

    std::vector<AggState> agg(stmt.aggregates.size());
    std::size_t matched = 0;
    ThresholdStats run_stats;
    // ORDER BY output in (key, scan order) order — a stable sort. With
    // TOP n, `ranked` is a heap of the n best rows seen so far (the
    // worst on top), and only a row that enters it is projected.
    std::vector<Ranked> ranked;
    // Whether a NaN SCORE key entered the heap. NaN compares equal to
    // every key, so it can enter only while the heap has room and never
    // leaves it, and the heap's worst key is then no threshold.
    bool nan_key = false;
    std::size_t scanned = 0;
    const bool descending =
        stmt.order_by.has_value() && stmt.order_by->descending;
    auto ranks_before = [descending](const Ranked& a, const Ranked& b) {
        const int cmp = CompareValues(a.key, b.key);
        if (cmp != 0) {
            return descending ? cmp > 0 : cmp < 0;
        }
        return a.seq < b.seq;
    };
    // Paged labels, a page at a time, read in scan order by the walk.
    LabelReader labels(table);

    // Score step: the SCORE predicates, then @p cut (a morsel's rising
    // TOP-N threshold), then the values of the scores the sink reads,
    // over the plain-predicate survivors @p live of a batch of @p n
    // rows — a paged morsel's feature rows @p feats, or in-memory rows
    // [@p first, @p first + @p n) when @p feats is null. It reads only
    // the compiled plan, the cached feature block and the table's
    // columns, so a pool thread may run it.
    auto score = [&](const RowView* feats, std::size_t first, std::size_t n,
                     std::vector<std::uint32_t> live,
                     const std::optional<ScorePredicate>& cut) {
        Scored out;
        // 1. Batch-local feature sources per score (lazy).
        std::vector<std::optional<RowView>> src(scores_.size());
        std::vector<std::vector<float>> col_scratch(scores_.size());
        auto chunk_src = [&](std::size_t s) -> const RowView& {
            if (!src[s].has_value()) {
                const CompiledScore& cs = scores_[s];
                if (!paged && cs.covers_all) {
                    src[s] = mem_features.Slice(first, first + n);
                } else if (!paged) {
                    const RowBlock block = table.MaterializeColumns(
                        cs.feature_cols, first, first + n);
                    src[s] = block.View();
                } else if (cs.identity_prefix) {
                    src[s] = feats->Prefix(cs.feature_idx.size());
                } else {
                    src[s] = Gather(*feats, nullptr, n,
                                    cs.feature_idx.data(),
                                    cs.feature_idx.size(),
                                    col_scratch[s]);
                }
            }
            return *src[s];
        };

        // 2. SCORE predicates over the compacted survivors.
        std::vector<float> row_scratch;
        auto filter = [&](const ScorePredicate& pred) {
            if (live.empty()) {
                return;
            }
            const CompiledScore& cs = scores_[pred.score_index];
            const bool all = live.size() == n;
            RowView view =
                all ? chunk_src(pred.score_index)
                    : Gather(chunk_src(pred.score_index), live.data(),
                             live.size(), nullptr, 0, row_scratch);
            std::vector<std::uint8_t> keep;
            if (pred.early_exit && cs.kernel != nullptr &&
                cs.kernel->SupportsThresholdEarlyExit()) {
                keep = cs.kernel->PredictThreshold(
                    view, *ToThresholdOp(pred.op), pred.literal,
                    &out.stats);
            } else {
                const std::vector<float> vals =
                    cs.kernel != nullptr ? cs.kernel->Predict(view)
                                         : cs.model->PredictBatch(view);
                keep.resize(vals.size());
                for (std::size_t i = 0; i < vals.size(); ++i) {
                    keep[i] = ScorePredHolds(pred.op, vals[i],
                                             pred.literal)
                                  ? 1
                                  : 0;
                }
            }
            std::vector<std::uint32_t> next;
            next.reserve(live.size());
            for (std::size_t i = 0; i < live.size(); ++i) {
                if (keep[i] != 0) {
                    next.push_back(live[i]);
                }
            }
            live.swap(next);
        };
        for (const ScorePredicate& pred : score_preds_) {
            filter(pred);
        }
        if (cut.has_value()) {
            filter(*cut);
        }

        // 3. Score values for the survivors.
        out.vals.resize(scores_.size());
        if (!live.empty()) {
            const bool all = live.size() == n;
            for (std::size_t s = 0; s < scores_.size(); ++s) {
                if (!value_needed[s]) {
                    continue;
                }
                const CompiledScore& cs = scores_[s];
                RowView view =
                    all ? chunk_src(s)
                        : Gather(chunk_src(s), live.data(), live.size(),
                                 nullptr, 0, row_scratch);
                out.vals[s] = cs.kernel != nullptr
                                  ? cs.kernel->Predict(view)
                                  : cs.model->PredictBatch(view);
            }
        }
        out.live = std::move(live);
        return out;
    };

    // Sink step: folds a scored batch into the statement, in scan
    // order — early-exit counters, aggregates, the TOP-N heap or
    // projected rows. Row i of a slice is table row @p first + i; row i
    // of a paged morsel is its i-th plain survivor, with its feature
    // row in @p feats. When the sink reads a paged label, row i's label
    // is @p row_labels[i]. Returns false to stop the scan early (TOP
    // with no ORDER BY has its rows).
    auto sink = [&](const RowView* feats, const float* row_labels,
                    std::size_t first, const Scored& batch) -> bool {
        AddStats(run_stats, batch.stats);
        const std::vector<std::uint32_t>& live = batch.live;
        const std::vector<std::vector<float>>& vals = batch.vals;

        // Cell accessor for plain columns of surviving rows.
        auto column_value = [&](std::size_t local, std::size_t col) {
            if (!paged) {
                return table.At(first + local, col);
            }
            const double v =
                col == label_col
                    ? static_cast<double>(row_labels[local])
                    : static_cast<double>(
                          feats->At(local, feature_index(col)));
            return Value(v);
        };

        if (!stmt.aggregates.empty()) {
            for (std::size_t j = 0; j < live.size(); ++j) {
                for (std::size_t a = 0; a < stmt.aggregates.size();
                     ++a) {
                    const AggregateItem& item = stmt.aggregates[a];
                    if (item.func == AggFunc::kCount) {
                        continue;  // counted via `matched`
                    }
                    Value v;
                    if (logical_.agg_score_map[a].has_value()) {
                        v = static_cast<double>(
                            vals[*logical_.agg_score_map[a]][j]);
                    } else {
                        v = column_value(live[j], agg_cols[a]);
                    }
                    AggState& state = agg[a];
                    if (item.func == AggFunc::kSum ||
                        item.func == AggFunc::kAvg) {
                        state.sum += ValueAsDouble(v);
                    } else if (!state.best.has_value()) {
                        state.best = std::move(v);
                    } else {
                        const int cmp = CompareValues(v, *state.best);
                        if ((item.func == AggFunc::kMin && cmp < 0) ||
                            (item.func == AggFunc::kMax && cmp > 0)) {
                            state.best = std::move(v);
                        }
                    }
                }
            }
            matched += live.size();
            return true;
        }

        auto project = [&](std::size_t j) {
            std::vector<Value> row;
            row.reserve(proj.size());
            for (const ProjItem& item : proj) {
                if (item.is_score) {
                    row.push_back(static_cast<double>(vals[item.index][j]));
                } else {
                    row.push_back(column_value(live[j], item.index));
                }
            }
            return row;
        };
        for (std::size_t j = 0; j < live.size(); ++j) {
            if (!stmt.order_by.has_value()) {
                result.rows.push_back(project(j));
                if (top_stops && result.rows.size() >= *stmt.top) {
                    return false;  // enough rows, stop scanning
                }
                continue;
            }
            Ranked entry;
            entry.key = logical_.order_score.has_value()
                            ? Value(static_cast<double>(
                                  vals[*logical_.order_score][j]))
                            : column_value(live[j], order_col);
            entry.seq = scanned++;
            if (stmt.top.has_value() && ranked.size() == *stmt.top) {
                // Full heap: a later row never wins a tie, so only a
                // strictly better key displaces the worst kept row.
                if (ranked.empty() || !ranks_before(entry, ranked.front())) {
                    continue;
                }
                std::pop_heap(ranked.begin(), ranked.end(), ranks_before);
                ranked.pop_back();
            }
            nan_key = nan_key || (logical_.order_score.has_value() &&
                                  std::isnan(std::get<double>(entry.key)));
            entry.row = project(j);
            ranked.push_back(std::move(entry));
            if (stmt.top.has_value()) {
                std::push_heap(ranked.begin(), ranked.end(), ranks_before);
            }
        }
        return true;
    };

    // The rising threshold of a morsel offered now: the worst key of a
    // full, NaN-free TOP-N heap. A later row enters the heap only if it
    // strictly beats that key, which only rises while morsels sink in
    // scan order, so a row that fails it would also fail the heap's own
    // test (DESIGN.md §14).
    auto rising_cut = [&]() -> std::optional<ScorePredicate> {
        if (!rising_threshold_ || nan_key || ranked.size() < *stmt.top) {
            return std::nullopt;
        }
        ScorePredicate cut;
        cut.score_index = *logical_.order_score;
        cut.op = descending ? CompareOp::kGt : CompareOp::kLt;
        cut.literal = static_cast<float>(std::get<double>(ranked.front().key));
        cut.early_exit = true;
        return cut;
    };

    // Morsels, on either backing. A paged statement that reads a
    // feature column walks its pages: the survivors of consecutive
    // pages are copied into one block, so each page's pin is released
    // as the stream moves on. Such a morsel closes at kMorselRows
    // survivors after a page, inside a page before it reaches
    // kParallelRowCutoff rows (so its kernel calls run inline on
    // whichever thread scores it), when TOP without ORDER BY has as
    // many candidates as rows still wanted, and at the end of the
    // stream. Every other statement walks row ids in slices of
    // kMorselRows rows: an in-memory table's rows (zero-copy slices of
    // its feature sources), or a paged table's when the statement reads
    // no feature column (COUNT(*) alone, or only the label), each slice
    // carrying its rows' labels when the sink reads the label. Closed
    // morsels are offered to the shared pool while this thread walks
    // on, and sunk here in scan order once more than twice the pool's
    // size are in flight; a morsel no worker has started is scored
    // here, and so is the stream's last one. TOP without ORDER BY
    // scores each morsel as it closes: it must not pin a page past the
    // one holding its n-th row (a miss may read one run ahead, unpinned).
    // A plan without SCORE has nothing to offer the pool.
    ThreadPool& pool = ThreadPool::Shared();
    const std::size_t window =
        top_stops || scores_.empty() ? 0 : 2 * pool.size();
    const trace::SpanContext parent = trace::TraceCollector::Current();
    auto score_morsel = [&](Morsel& m) {
        trace::ScopedParent adopt(parent);
        const RowView feats = m.View();
        m.scored = score(paged ? &feats : nullptr, m.first, m.count,
                         std::move(m.live), m.cut);
    };
    // The morsel being filled: paged survivors, or a slice's first row,
    // rows and plain survivors.
    std::vector<float> morsel_feats;
    std::vector<float> morsel_labels;
    std::size_t width = 0;
    std::size_t morsel_first = 0;
    std::size_t morsel_count = 0;
    std::vector<std::uint32_t> morsel_live;
    // The buffers of the last morsel sunk, reused by the next one.
    std::vector<float> spare_feats;
    std::vector<float> spare_labels;
    // Declared after everything a task reads, so it is destroyed
    // first: unwinding cancels queued tasks and waits for running
    // ones.
    std::deque<Morsel> in_flight;
    auto sink_oldest = [&]() {
        Morsel& m = in_flight.front();
        if (m.task.has_value()) {
            m.task->Join();
        } else {
            score_morsel(m);
        }
        const RowView feats = m.View();
        const bool more = sink(&feats, m.labels.data(), m.first, m.scored);
        m.feats.clear();
        m.labels.clear();
        spare_feats.swap(m.feats);
        spare_labels.swap(m.labels);
        in_flight.pop_front();
        return more;
    };
    auto flush = [&](bool offer) {
        if (morsel_live.empty()) {
            morsel_labels.clear();
            return true;
        }
        if (!morsel_feats.empty()) {
            RowBlock::NoteCopy(static_cast<std::uint64_t>(
                                   morsel_feats.size()) *
                               sizeof(float));
        }
        Morsel& m = in_flight.emplace_back();
        m.feats.swap(morsel_feats);
        m.labels.swap(morsel_labels);
        m.width = width;
        m.first = morsel_first;
        m.count = morsel_count;
        m.live.swap(morsel_live);
        m.cut = rising_cut();
        morsel_feats.swap(spare_feats);
        morsel_labels.swap(spare_labels);
        morsel_count = 0;
        if (offer && window > 0) {
            m.task.emplace(pool, [&score_morsel, &m] { score_morsel(m); });
        }
        bool more = true;
        while (more && in_flight.size() > window) {
            more = sink_oldest();
        }
        return more;
    };
    bool more = true;
    if (paged && reads_features) {
        storage::FeatureStream stream = table.store()->Scan(zone_predicate_);
        storage::StreamChunk chunk;
        while (more && stream.Next(chunk)) {
            const RowView& page = chunk.view;
            width = page.cols();
            for (std::size_t i = 0; more && i < page.rows(); ++i) {
                const std::size_t r = chunk.row_begin + i;
                const float* feats = page.Row(i);
                if (!PassesPlain(table, r, feats, labels)) {
                    continue;
                }
                if (carry_labels) {
                    morsel_labels.push_back(labels.At(r));
                }
                morsel_feats.insert(morsel_feats.end(), feats,
                                    feats + width);
                morsel_live.push_back(
                    static_cast<std::uint32_t>(morsel_count));
                if (++morsel_count == kParallelRowCutoff - 1) {
                    more = flush(true);
                }
            }
            if (more &&
                (morsel_count >= kMorselRows ||
                 (top_stops &&
                  morsel_count >= *stmt.top - result.rows.size()))) {
                more = flush(true);
            }
        }
    } else {
        const std::size_t n = table.NumRows();
        for (std::size_t first = 0; more && first < n;
             first += kMorselRows) {
            morsel_first = first;
            morsel_count = std::min(kMorselRows, n - first);
            for (std::uint32_t i = 0; i < morsel_count; ++i) {
                if (PassesPlain(table, first + i, nullptr, labels)) {
                    morsel_live.push_back(i);
                }
                if (carry_labels) {
                    morsel_labels.push_back(labels.At(first + i));
                }
            }
            if (first + morsel_count < n) {
                more = flush(true);
            }
        }
    }
    // The last morsel is scored here: this thread would only wait for a
    // worker to wake up and score it.
    if (more) {
        more = flush(false);
    }
    while (more && !in_flight.empty()) {
        more = sink_oldest();
    }

    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        AddStats(threshold_stats_, run_stats);
    }

    if (!stmt.aggregates.empty()) {
        std::vector<Value> row;
        for (std::size_t a = 0; a < stmt.aggregates.size(); ++a) {
            const AggregateItem& item = stmt.aggregates[a];
            switch (item.func) {
              case AggFunc::kCount:
                row.push_back(static_cast<std::int64_t>(matched));
                break;
              case AggFunc::kSum:
                row.push_back(agg[a].sum);
                break;
              case AggFunc::kAvg:
                if (matched == 0) {
                    throw InvalidArgument("AVG over zero rows");
                }
                row.push_back(agg[a].sum /
                              static_cast<double>(matched));
                break;
              case AggFunc::kMin:
              case AggFunc::kMax:
                if (!agg[a].best.has_value()) {
                    throw InvalidArgument(
                        std::string(AggFuncName(item.func)) +
                        " over zero rows");
                }
                row.push_back(*agg[a].best);
                break;
            }
        }
        result.rows.push_back(std::move(row));
        result.message = "1 row(s)";
        return result;
    }

    if (stmt.order_by.has_value()) {
        std::sort(ranked.begin(), ranked.end(), ranks_before);
        result.rows.reserve(ranked.size());
        for (Ranked& entry : ranked) {
            result.rows.push_back(std::move(entry.row));
        }
    }
    if (stmt.top.has_value() && result.rows.size() > *stmt.top) {
        result.rows.resize(*stmt.top);
    }
    result.message = StrFormat("%zu row(s)", result.rows.size());
    return result;
}

ScoringBatch
PhysicalPlan::CollectScoringBatch(const Database& db) const
{
    if (scores_.size() != 1) {
        throw InvalidArgument(
            "plan: a scoring batch needs exactly one SCORE(...) "
            "expression");
    }
    const Table& table = db.GetTable(logical_.stmt.table);
    const CompiledScore& cs = scores_[0];
    const std::size_t width = cs.feature_cols.size();

    ScoringBatch batch;
    batch.model = cs.expr.model;
    std::vector<float> features;
    LabelReader labels(table);
    if (table.paged()) {
        storage::FeatureStream stream = table.store()->Scan(zone_predicate_);
        storage::StreamChunk chunk;
        while (stream.Next(chunk)) {
            for (std::size_t i = 0; i < chunk.view.rows(); ++i) {
                const float* feats = chunk.view.Row(i);
                if (!PassesPlain(table, chunk.row_begin + i, feats, labels)) {
                    continue;
                }
                batch.row_ids.push_back(chunk.row_begin + i);
                for (std::size_t f : cs.feature_idx) {
                    features.push_back(feats[f]);
                }
            }
        }
    } else {
        for (std::size_t r = 0; r < table.NumRows(); ++r) {
            if (!PassesPlain(table, r, nullptr, labels)) {
                continue;
            }
            batch.row_ids.push_back(r);
            for (std::size_t c : cs.feature_cols) {
                features.push_back(table.FloatAt(r, c));
            }
        }
    }

    RowBlock::NoteCopy(static_cast<std::uint64_t>(features.size()) *
                       sizeof(float));
    batch.features = RowBlock(std::move(features), width);
    return batch;
}

ThresholdStats
PhysicalPlan::threshold_stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return threshold_stats_;
}

std::vector<std::string>
PhysicalPlan::ExplainPhysical() const
{
    std::vector<std::string> lines;
    for (const CompiledScore& cs : scores_) {
        std::string kernel;
        if (cs.kernel != nullptr) {
            kernel = StrFormat(
                "kernel (%zu trees)%s", cs.kernel->NumTrees(),
                cs.threshold_kernel != nullptr ? " [early-exit]" : "");
        } else {
            kernel = "scalar reference (kernel unsupported)";
        }
        lines.push_back(StrFormat("%s: %s",
                                  ScoreExprToString(cs.expr).c_str(),
                                  kernel.c_str()));
    }
    if (zone_predicate_.has_value()) {
        lines.push_back(StrFormat(
            "scan: zone-map pruning on feature column %zu in [%g, %g]",
            zone_predicate_->column,
            static_cast<double>(zone_predicate_->min),
            static_cast<double>(zone_predicate_->max)));
    }
    if (rising_threshold_) {
        lines.push_back(StrFormat(
            "top-n: TOP %zu by %s %s in %zu-row morsels, each scored "
            "against the heap's rising threshold",
            *logical_.stmt.top,
            ScoreExprToString(scores_[*logical_.order_score].expr).c_str(),
            logical_.stmt.order_by->descending ? "DESC" : "ASC",
            kMorselRows));
    }
    const ThresholdStats stats = threshold_stats();
    if (stats.rows > 0) {
        lines.push_back(StrFormat(
            "early-exit: %llu of %llu row(s) decided early, %llu of "
            "%llu tree traversal(s) executed",
            static_cast<unsigned long long>(stats.rows_decided_early),
            static_cast<unsigned long long>(stats.rows),
            static_cast<unsigned long long>(stats.tree_traversals),
            static_cast<unsigned long long>(
                stats.tree_traversals_full)));
    }
    return lines;
}

}  // namespace dbscore::plan
