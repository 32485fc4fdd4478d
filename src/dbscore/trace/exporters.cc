#include "dbscore/trace/exporters.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "dbscore/common/string_util.h"
#include "dbscore/common/table_printer.h"

namespace dbscore::trace {

namespace {

/** Wall spans live in pid 1, simulated spans in pid 2. */
constexpr int kWallPid = 1;
constexpr int kSimPid = 2;

std::string
JsonEscape(const char* s)
{
    std::string out;
    for (; *s; ++s) {
        char c = *s;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += StrFormat("\\u%04x", c);
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
JsonNumber(double v)
{
    if (!std::isfinite(v)) return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

void
WriteEvent(std::ostream& os, const SpanRecord& r, bool wall_clock, bool& first)
{
    if (!first) os << ",\n";
    first = false;
    double ts = wall_clock ? r.wall_start_us : r.sim_start_s * 1e6;
    double dur = wall_clock ? r.wall_dur_us : r.sim_dur_s * 1e6;
    int pid = wall_clock ? kWallPid : kSimPid;
    /* Simulated spans have no real thread; track them per trace so
     * each query/request gets its own swimlane on the modeled
     * timeline. */
    std::uint64_t tid = wall_clock ? r.thread_id : r.trace_id;
    os << "  {\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"ts\":" << JsonNumber(ts) << ",\"dur\":" << JsonNumber(dur)
       << ",\"name\":\"" << JsonEscape(r.name) << "\",\"cat\":\""
       << StageName(r.stage) << "\",\"args\":{\"trace_id\":" << r.trace_id
       << ",\"span_id\":" << r.span_id << ",\"parent_id\":" << r.parent_id
       << ",\"domain\":" << r.domain << ",\"thread_id\":" << r.thread_id;
    if (r.has_sim()) {
        os << ",\"sim_start_us\":" << JsonNumber(r.sim_start_s * 1e6)
           << ",\"sim_dur_us\":" << JsonNumber(r.sim_dur_s * 1e6);
    }
    for (std::uint32_t i = 0; i < r.num_attrs; ++i) {
        os << ",\"" << JsonEscape(r.attrs[i].key)
           << "\":" << JsonNumber(r.attrs[i].value);
    }
    os << "}}";
}

void
WriteProcessName(std::ostream& os, int pid, const char* label, bool& first)
{
    if (!first) os << ",\n";
    first = false;
    os << "  {\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" << label
       << "\"}}";
}

}  // namespace

void
WriteChromeTrace(std::ostream& os, const std::vector<SpanRecord>& spans,
                 std::uint64_t dropped)
{
    os << "{\n\"traceEvents\": [\n";
    bool first = true;
    WriteProcessName(os, kWallPid, "wall clock", first);
    WriteProcessName(os, kSimPid, "simulated time", first);
    for (const SpanRecord& r : spans) {
        /* A dual-clock span renders once per clock; the shared
         * span_id in args ties the two events together. */
        if (r.has_wall()) WriteEvent(os, r, /*wall_clock=*/true, first);
        if (r.has_sim()) WriteEvent(os, r, /*wall_clock=*/false, first);
    }
    os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {"
       << "\"spans\": " << spans.size() << ", \"dropped\": " << dropped
       << "}\n}\n";
}

void
PrintStageTable(std::ostream& os, const TraceSummary& summary,
                bool wall_total)
{
    std::vector<std::string> headers = {
        "stage",   "paper component", "count",  "sim total",
        "sim p50", "sim p95",         "sim p99"};
    if (wall_total) {
        headers.push_back("wall total");
    }
    TablePrinter table(std::move(headers));
    for (const StageSummary& s : summary.stages) {
        std::vector<std::string> row = {
            StageName(s.stage),
            StagePaperComponent(s.stage),
            std::to_string(s.count),
            s.sim_total.ToString(),
            SimTime::Micros(s.sim_p50_us).ToString(),
            SimTime::Micros(s.sim_p95_us).ToString(),
            SimTime::Micros(s.sim_p99_us).ToString(),
        };
        if (wall_total) {
            row.push_back(SimTime::Micros(s.wall_total_us).ToString());
        }
        table.AddRow(std::move(row));
    }
    table.Print(os);
    os << StrFormat("spans recorded: %llu, dropped: %llu\n",
                    static_cast<unsigned long long>(summary.spans_recorded),
                    static_cast<unsigned long long>(summary.spans_dropped));
}

}  // namespace dbscore::trace
