#include "dbscore/core/report.h"

#include <sstream>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/common/table_printer.h"

namespace dbscore {

std::string
FormatSpeedup(double speedup)
{
    if (speedup >= 10.0) {
        return StrFormat("%.0fx", speedup);
    }
    return StrFormat("%.1fx", speedup);
}

std::string
RenderShmooGrid(const std::string& title,
                const std::vector<std::size_t>& record_counts,
                const std::vector<std::size_t>& tree_counts,
                const std::vector<std::vector<ShmooCell>>& cells)
{
    DBS_ASSERT(cells.size() == record_counts.size());
    std::vector<std::string> headers{"records \\ trees"};
    for (std::size_t trees : tree_counts) {
        headers.push_back(HumanCount(trees));
    }
    TablePrinter table(std::move(headers));
    for (std::size_t r = 0; r < record_counts.size(); ++r) {
        DBS_ASSERT(cells[r].size() == tree_counts.size());
        std::vector<std::string> row{HumanCount(record_counts[r])};
        for (const ShmooCell& cell : cells[r]) {
            row.push_back(std::string(BackendName(cell.best)) + " (" +
                          FormatSpeedup(cell.speedup_over_cpu) + ")");
        }
        table.AddRow(std::move(row));
    }
    std::ostringstream os;
    os << title << "\n" << table.ToString();
    return os.str();
}

std::string
RenderBreakdownTable(const std::string& title,
                     const std::vector<BreakdownColumn>& cols)
{
    std::vector<std::string> headers{"component"};
    for (const auto& col : cols) {
        headers.push_back(col.label);
    }
    TablePrinter table(std::move(headers));

    auto add_component =
        [&](const char* name, auto getter) {
            std::vector<std::string> row{name};
            for (const auto& col : cols) {
                row.push_back(getter(col.breakdown).ToString());
            }
            table.AddRow(std::move(row));
        };
    add_component("preprocessing", [](const OffloadBreakdown& b) {
        return b.preprocessing;
    });
    add_component("input transfer", [](const OffloadBreakdown& b) {
        return b.input_transfer;
    });
    add_component("setup", [](const OffloadBreakdown& b) {
        return b.setup;
    });
    add_component("scoring (compute)", [](const OffloadBreakdown& b) {
        return b.compute;
    });
    add_component("completion signal", [](const OffloadBreakdown& b) {
        return b.completion_signal;
    });
    add_component("result transfer", [](const OffloadBreakdown& b) {
        return b.result_transfer;
    });
    add_component("software overhead", [](const OffloadBreakdown& b) {
        return b.software_overhead;
    });
    table.AddSeparator();
    add_component("TOTAL", [](const OffloadBreakdown& b) {
        return b.Total();
    });

    std::ostringstream os;
    os << title << "\n" << table.ToString();
    return os.str();
}

std::string
RenderSeriesTable(const std::string& title,
                  const std::vector<std::size_t>& record_counts,
                  const std::vector<std::string>& series_names,
                  const std::vector<std::vector<SimTime>>& series_latencies,
                  bool as_throughput)
{
    DBS_ASSERT(series_names.size() == series_latencies.size());
    std::vector<std::string> headers{"records"};
    for (const auto& name : series_names) {
        headers.push_back(name);
    }
    TablePrinter table(std::move(headers));
    for (std::size_t r = 0; r < record_counts.size(); ++r) {
        std::vector<std::string> row{HumanCount(record_counts[r])};
        for (const auto& series : series_latencies) {
            DBS_ASSERT(series.size() == record_counts.size());
            if (as_throughput) {
                double mps = static_cast<double>(record_counts[r]) /
                             series[r].seconds() / 1e6;
                row.push_back(StrFormat("%.3f M/s", mps));
            } else {
                row.push_back(series[r].ToString());
            }
        }
        table.AddRow(std::move(row));
    }
    std::ostringstream os;
    os << title << "\n" << table.ToString();
    return os.str();
}

}  // namespace dbscore
