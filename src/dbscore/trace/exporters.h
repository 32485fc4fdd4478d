/**
 * @file
 * Trace exporters: Chrome trace_event JSON and a Fig-11-style table.
 *
 * The JSON export loads directly in chrome://tracing or Perfetto.
 * Wall-clock spans render as process 1 (one track per real thread);
 * simulated spans render as process 2 on the modeled timeline (one
 * track per trace), so both clocks are visible side by side. Every
 * event's args carry the raw ids, both clocks, and the span's
 * attributes so parent links survive the export.
 */
#ifndef DBSCORE_TRACE_EXPORTERS_H
#define DBSCORE_TRACE_EXPORTERS_H

#include <cstdint>
#include <ostream>
#include <vector>

#include "dbscore/trace/trace.h"

namespace dbscore::trace {

/**
 * Writes @p spans as a Chrome trace_event JSON object document.
 * @p dropped is reported in otherData so consumers can detect an
 * incomplete trace.
 */
void WriteChromeTrace(std::ostream& os, const std::vector<SpanRecord>& spans,
                      std::uint64_t dropped = 0);

/**
 * Renders @p summary as a per-stage breakdown table (stage, paper
 * component, count, simulated total + percentiles, and the wall total
 * unless @p wall_total is false) via common/table_printer — the
 * textual sibling of the paper's Fig 11. Without the wall column the
 * table is a pure function of the modeled clock.
 */
void PrintStageTable(std::ostream& os, const TraceSummary& summary,
                     bool wall_total = true);

}  // namespace dbscore::trace

#endif  // DBSCORE_TRACE_EXPORTERS_H
