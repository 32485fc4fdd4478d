#include "bench_util.h"

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "dbscore/common/csv.h"
#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"

#include <map>

#include "dbscore/data/synthetic.h"
#include "dbscore/forest/trainer.h"

namespace dbscore::bench {

const char*
DatasetName(DatasetKind kind)
{
    return kind == DatasetKind::kIris ? "IRIS" : "HIGGS";
}

std::size_t
DatasetFeatures(DatasetKind kind)
{
    return kind == DatasetKind::kIris ? 4 : 28;
}

const Dataset&
TrainingData(DatasetKind kind)
{
    // IRIS: the paper replicates the 150-sample dataset; we train on the
    // replicated+jittered sample so depth-10 trees stay small (IRIS is
    // easy). HIGGS: a 20K-row subset like the paper's "subset of HIGGS".
    static const Dataset iris = MakeIris(150, 42);
    static const Dataset higgs = MakeHiggs(20000, 42);
    return kind == DatasetKind::kIris ? iris : higgs;
}

const BenchModel&
GetModel(DatasetKind kind, std::size_t trees, std::size_t depth)
{
    static std::map<std::tuple<DatasetKind, std::size_t, std::size_t>,
                    BenchModel>
        cache;
    auto key = std::make_tuple(kind, trees, depth);
    auto it = cache.find(key);
    if (it != cache.end()) {
        return it->second;
    }

    const Dataset& train = TrainingData(kind);
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = depth;
    config.seed = 42;
    BenchModel model{kind, trees, depth, TrainForest(train, config),
                     {}, {}};
    model.ensemble = TreeEnsemble::FromForest(model.forest);
    model.stats = ComputeModelStats(model.forest, &train);
    return cache.emplace(key, std::move(model)).first->second;
}

OffloadScheduler
MakeScheduler(const BenchModel& model)
{
    return OffloadScheduler(HardwareProfile::Paper(), model.ensemble,
                            model.stats);
}

const std::vector<std::size_t>&
RecordSweep()
{
    static const std::vector<std::size_t> sweep = {
        1, 10, 100, 1000, 10000, 100000, 1000000};
    return sweep;
}

SimTime
BestCpuTime(const OffloadScheduler& sched, std::size_t num_rows)
{
    SimTime best = SimTime::Seconds(1e30);
    for (BackendKind kind : sched.Available()) {
        if (BackendDeviceClass(kind) == DeviceClass::kCpu) {
            best = Min(best, sched.EstimateFor(kind, num_rows).Total());
        }
    }
    return best;
}

SimTime
BestAcceleratorTime(const OffloadScheduler& sched, std::size_t num_rows)
{
    SimTime best = SimTime::Seconds(1e30);
    for (BackendKind kind : sched.Available()) {
        if (BackendDeviceClass(kind) != DeviceClass::kCpu) {
            best = Min(best, sched.EstimateFor(kind, num_rows).Total());
        }
    }
    return best;
}

std::size_t
FindCpuCrossover(const OffloadScheduler& sched)
{
    static const std::vector<std::size_t> fine = {
        1,     10,    50,     100,    200,    500,    1000,   2000,
        5000,  10000, 20000,  50000,  100000, 200000, 500000, 1000000};
    for (std::size_t n : fine) {
        if (BestAcceleratorTime(sched, n) < BestCpuTime(sched, n)) {
            return n;
        }
    }
    return 0;
}

void
DumpSeriesCsv(const std::string& path,
              const std::vector<std::size_t>& record_counts,
              const std::vector<std::string>& series_names,
              const std::vector<std::vector<SimTime>>& series)
{
    std::ofstream out(path);
    if (!out) {
        throw InvalidArgument("cannot write CSV to " + path);
    }
    std::vector<std::string> header{"records"};
    header.insert(header.end(), series_names.begin(), series_names.end());
    WriteCsvRow(out, header);
    for (std::size_t r = 0; r < record_counts.size(); ++r) {
        std::vector<std::string> row{std::to_string(record_counts[r])};
        for (const auto& s : series) {
            row.push_back(StrFormat("%.9g", s[r].seconds()));
        }
        WriteCsvRow(out, row);
    }
    std::cout << "wrote " << path << "\n";
}

BenchArgs
ParseBenchArgs(int argc, char** argv, const std::string& bench_name,
               const std::string& default_out, bool accepts_filter)
{
    BenchArgs args;
    args.out_path = default_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            args.smoke = true;
        } else if (arg.rfind("--out=", 0) == 0) {
            args.out_path = arg.substr(6);
        } else if (accepts_filter && arg.rfind("--filter=", 0) == 0) {
            args.filter = arg.substr(9);
        } else {
            std::cerr << "usage: " << bench_name
                      << " [--smoke] [--out=PATH]"
                      << (accepts_filter ? " [--filter=STR]" : "")
                      << "\n";
            args.ok = false;
            return args;
        }
    }
    return args;
}

double
SecondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

namespace {

/** splitmix64: turns any seed into a well-mixed nonzero PRNG state. */
std::uint64_t
SplitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
ZipfZeta(std::size_t n, double theta)
{
    double sum = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(std::size_t n, double theta,
                                   std::uint64_t seed)
    : n_(n), theta_(theta), state_(SplitMix64(seed))
{
    if (n == 0) {
        throw InvalidArgument("ZipfianGenerator: n must be positive");
    }
    if (theta < 0.0 || theta >= 1.0) {
        throw InvalidArgument(
            "ZipfianGenerator: theta must be in [0, 1)");
    }
    if (state_ == 0) {
        state_ = 1;  // xorshift64 has a zero fixed point.
    }
    zetan_ = ZipfZeta(n_, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    const double zeta2 = ZipfZeta(std::min<std::size_t>(n_, 2), theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

double
ZipfianGenerator::NextUniform()
{
    // xorshift64* — tiny, fast, and identical on every platform
    // (std::mt19937 distributions are not bit-stable across stdlibs).
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    const std::uint64_t x = state_ * 0x2545f4914f6cdd1dULL;
    return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

std::size_t
ZipfianGenerator::Next()
{
    const double u = NextUniform();
    const double uz = u * zetan_;
    if (uz < 1.0) {
        return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
        return 1;
    }
    const std::size_t rank = static_cast<std::size_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(rank, n_ - 1);
}

namespace {

std::string
JsonQuote(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
        }
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

std::string
JsonNumber(double v)
{
    // Default ostream formatting, matching the historical writers.
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

}  // namespace

BenchJsonObject&
BenchJsonObject::Str(const std::string& key, const std::string& v)
{
    fields_.emplace_back(key, JsonQuote(v));
    return *this;
}

BenchJsonObject&
BenchJsonObject::Num(const std::string& key, double v)
{
    fields_.emplace_back(key, JsonNumber(v));
    return *this;
}

BenchJsonObject&
BenchJsonObject::Int(const std::string& key, std::uint64_t v)
{
    fields_.emplace_back(key, std::to_string(v));
    return *this;
}

BenchJsonObject&
BenchJsonObject::Bool(const std::string& key, bool v)
{
    fields_.emplace_back(key, v ? "true" : "false");
    return *this;
}

std::string
BenchJsonObject::Render() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) {
            out += ", ";
        }
        out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
    }
    out += "}";
    return out;
}

BenchJsonWriter::BenchJsonWriter(std::string bench, bool smoke)
    : bench_(std::move(bench)), smoke_(smoke)
{
}

BenchJsonObject&
BenchJsonWriter::AddResult()
{
    results_.emplace_back();
    return results_.back();
}

void
BenchJsonWriter::Write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        throw IoError("bench: cannot write JSON to " + path);
    }
    out << "{\n"
        << "  \"bench\": \"" << bench_ << "\",\n"
        << "  \"schema_version\": " << schema_version_ << ",\n"
        << "  \"smoke\": " << (smoke_ ? "true" : "false");
    // Header fields render one per line, like the historical writers.
    const std::string header = header_.Render();
    if (header.size() > 2) {
        std::string inner = header.substr(1, header.size() - 2);
        std::size_t start = 0;
        out << ",\n";
        // Top-level scalars never contain ", " inside a value (strings
        // are only bench names), so the join separator is unambiguous.
        while (true) {
            const std::size_t pos = inner.find(", ", start);
            out << "  " << inner.substr(start, pos - start);
            if (pos == std::string::npos) {
                break;
            }
            out << ",\n";
            start = pos + 2;
        }
    }
    out << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
        out << "    " << results_[i].Render()
            << (i + 1 < results_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

}  // namespace dbscore::bench
