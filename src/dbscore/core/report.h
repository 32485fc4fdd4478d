/**
 * @file
 * Rendering helpers for the figure-regeneration benches: shmoo grids
 * (Figures 1 and 8), breakdown tables (Figures 7 and 11), and latency /
 * throughput series (Figures 9 and 10).
 */
#ifndef DBSCORE_CORE_REPORT_H
#define DBSCORE_CORE_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "dbscore/core/scheduler.h"

namespace dbscore {

/** One cell of a best-backend shmoo grid. */
struct ShmooCell {
    BackendKind best;
    double speedup_over_cpu = 1.0;
};

/**
 * Renders a Figure-8-style grid: rows = record counts, cols = tree
 * counts, each cell "<backend> (<speedup>x)".
 */
std::string RenderShmooGrid(
    const std::string& title,
    const std::vector<std::size_t>& record_counts,
    const std::vector<std::size_t>& tree_counts,
    const std::vector<std::vector<ShmooCell>>& cells);

/** Formats "54.3x" with sensible precision. */
std::string FormatSpeedup(double speedup);

/** One labeled time column of a breakdown table. */
struct BreakdownColumn {
    std::string label;
    OffloadBreakdown breakdown;
};

/**
 * Renders a Figure-7-style component breakdown table, one column per
 * configuration, one row per offload component.
 */
std::string RenderBreakdownTable(const std::string& title,
                                 const std::vector<BreakdownColumn>& cols);

/** Renders one latency series table, rows = record counts. */
std::string RenderSeriesTable(
    const std::string& title, const std::vector<std::size_t>& record_counts,
    const std::vector<std::string>& series_names,
    const std::vector<std::vector<SimTime>>& series_latencies,
    bool as_throughput);

}  // namespace dbscore

#endif  // DBSCORE_CORE_REPORT_H
