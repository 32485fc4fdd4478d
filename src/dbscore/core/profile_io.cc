#include "dbscore/core/profile_io.h"

#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"

namespace dbscore {

namespace {

/**
 * The values a key accepts: finite, in [lo, hi], and whole numbers for
 * counts. The 1e9 ceiling keeps every modeled estimate finite up to
 * 10^6 rows; the 1e-9 floor keeps rates and sizes away from zero.
 */
struct Domain {
    double lo;
    double hi;
    bool whole;

    bool
    Contains(double v) const  // false for NaN
    {
        return v >= lo && v <= hi && (!whole || v == std::floor(v));
    }
};

/** Rates, sizes and per-unit costs. */
constexpr Domain kPositive{1e-9, 1e9, false};
/** Efficiencies. */
constexpr Domain kFraction{1e-9, 1.0, false};
/** Fixed overheads. */
constexpr Domain kOverhead{0.0, 1e9, false};
/** Hardware counts: a product of two still fits an int. */
constexpr Domain kCount{1.0, 32768.0, true};
/** FPGA tree depth: a full tree's 2^(depth+1) slots fit 64 bits. */
constexpr Domain kTreeDepth{1.0, 32.0, true};
/** PCIe generations and lane counts the link model knows. */
constexpr Domain kPcieGeneration{1.0, 5.0, true};
constexpr Domain kPcieLanes{1.0, 32.0, true};

/** One tunable field: name, domain, typed get/set against a profile. */
struct Field {
    const char* key;
    Domain domain;
    std::function<double(const HardwareProfile&)> get;
    std::function<void(HardwareProfile&, double)> set;
};

/** The registry of every externally tunable profile field. */
const std::vector<Field>&
Fields()
{
    static const std::vector<Field> fields = {
        // ---------------- CPU -------------------------------------------
        {"cpu.max_threads", kCount,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.cpu.max_threads);
         },
         [](HardwareProfile& p, double v) {
             p.cpu.max_threads = static_cast<int>(v);
         }},
        {"cpu.clock_ghz", kPositive,
         [](const HardwareProfile& p) { return p.cpu.clock_hz / 1e9; },
         [](HardwareProfile& p, double v) { p.cpu.clock_hz = v * 1e9; }},
        {"cpu.llc_mib", kPositive,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.cpu.llc_bytes) / (1 << 20);
         },
         [](HardwareProfile& p, double v) {
             p.cpu.llc_bytes =
                 static_cast<std::uint64_t>(v * (1 << 20));
         }},
        {"cpu.sklearn_fixed_ms", kOverhead,
         [](const HardwareProfile& p) {
             return p.cpu.sklearn_fixed.millis();
         },
         [](HardwareProfile& p, double v) {
             p.cpu.sklearn_fixed = SimTime::Millis(v);
         }},
        {"cpu.sklearn_per_node_ns", kPositive,
         [](const HardwareProfile& p) {
             return p.cpu.sklearn_per_node_ns;
         },
         [](HardwareProfile& p, double v) {
             p.cpu.sklearn_per_node_ns = v;
         }},
        {"cpu.onnx_fixed_us", kOverhead,
         [](const HardwareProfile& p) {
             return p.cpu.onnx_fixed.micros();
         },
         [](HardwareProfile& p, double v) {
             p.cpu.onnx_fixed = SimTime::Micros(v);
         }},
        {"cpu.onnx_per_node_ns", kPositive,
         [](const HardwareProfile& p) { return p.cpu.onnx_per_node_ns; },
         [](HardwareProfile& p, double v) {
             p.cpu.onnx_per_node_ns = v;
         }},
        // ---------------- GPU -------------------------------------------
        {"gpu.num_sms", kCount,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.gpu.num_sms);
         },
         [](HardwareProfile& p, double v) {
             p.gpu.num_sms = static_cast<int>(v);
         }},
        {"gpu.lanes_per_sm", kCount,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.gpu.lanes_per_sm);
         },
         [](HardwareProfile& p, double v) {
             p.gpu.lanes_per_sm = static_cast<int>(v);
         }},
        {"gpu.clock_ghz", kPositive,
         [](const HardwareProfile& p) { return p.gpu.clock_hz / 1e9; },
         [](HardwareProfile& p, double v) { p.gpu.clock_hz = v * 1e9; }},
        {"gpu.l2_mib", kPositive,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.gpu.l2_bytes) / (1 << 20);
         },
         [](HardwareProfile& p, double v) {
             p.gpu.l2_bytes = static_cast<std::uint64_t>(v * (1 << 20));
         }},
        {"gpu.dram_gbps", kPositive,
         [](const HardwareProfile& p) {
             return p.gpu.dram_bytes_per_second / 1e9;
         },
         [](HardwareProfile& p, double v) {
             p.gpu.dram_bytes_per_second = v * 1e9;
         }},
        {"gpu.kernel_launch_us", kOverhead,
         [](const HardwareProfile& p) {
             return p.gpu.kernel_launch.micros();
         },
         [](HardwareProfile& p, double v) {
             p.gpu.kernel_launch = SimTime::Micros(v);
         }},
        {"gpu.gemm_efficiency", kFraction,
         [](const HardwareProfile& p) { return p.gpu.gemm_efficiency; },
         [](HardwareProfile& p, double v) { p.gpu.gemm_efficiency = v; }},
        // ---------------- FPGA ------------------------------------------
        {"fpga.clock_mhz", kPositive,
         [](const HardwareProfile& p) { return p.fpga.clock_hz / 1e6; },
         [](HardwareProfile& p, double v) { p.fpga.clock_hz = v * 1e6; }},
        {"fpga.bram_mib", kPositive,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.fpga.bram_bytes) / (1 << 20);
         },
         [](HardwareProfile& p, double v) {
             p.fpga.bram_bytes = static_cast<std::uint64_t>(v * (1 << 20));
         }},
        {"fpga.num_pes", kCount,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.fpga.num_pes);
         },
         [](HardwareProfile& p, double v) {
             p.fpga.num_pes = static_cast<int>(v);
         }},
        {"fpga.max_tree_depth", kTreeDepth,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.fpga.max_tree_depth);
         },
         [](HardwareProfile& p, double v) {
             p.fpga.max_tree_depth = static_cast<int>(v);
         }},
        {"fpga.stream_floats_per_cycle", kCount,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.fpga.stream_floats_per_cycle);
         },
         [](HardwareProfile& p, double v) {
             p.fpga.stream_floats_per_cycle = static_cast<int>(v);
         }},
        {"fpga.software_overhead_ms", kOverhead,
         [](const HardwareProfile& p) {
             return p.fpga_offload.software_overhead.millis();
         },
         [](HardwareProfile& p, double v) {
             p.fpga_offload.software_overhead = SimTime::Millis(v);
         }},
        // ---------------- links -----------------------------------------
        {"gpu_link.generation", kPcieGeneration,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.gpu_link.generation);
         },
         [](HardwareProfile& p, double v) {
             p.gpu_link.generation = static_cast<int>(v);
         }},
        {"gpu_link.lanes", kPcieLanes,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.gpu_link.lanes);
         },
         [](HardwareProfile& p, double v) {
             p.gpu_link.lanes = static_cast<int>(v);
         }},
        {"fpga_link.generation", kPcieGeneration,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.fpga_link.generation);
         },
         [](HardwareProfile& p, double v) {
             p.fpga_link.generation = static_cast<int>(v);
         }},
        {"fpga_link.lanes", kPcieLanes,
         [](const HardwareProfile& p) {
             return static_cast<double>(p.fpga_link.lanes);
         },
         [](HardwareProfile& p, double v) {
             p.fpga_link.lanes = static_cast<int>(v);
         }},
        // ---------------- frameworks ------------------------------------
        {"rapids.preproc_fixed_ms", kOverhead,
         [](const HardwareProfile& p) {
             return p.rapids.preproc_fixed.millis();
         },
         [](HardwareProfile& p, double v) {
             p.rapids.preproc_fixed = SimTime::Millis(v);
         }},
        {"rapids.cudf_conversion_gbps", kPositive,
         [](const HardwareProfile& p) {
             return p.rapids.cudf_conversion_bw / 1e9;
         },
         [](HardwareProfile& p, double v) {
             p.rapids.cudf_conversion_bw = v * 1e9;
         }},
        {"hummingbird.software_overhead_ms", kOverhead,
         [](const HardwareProfile& p) {
             return p.hummingbird.software_overhead.millis();
         },
         [](HardwareProfile& p, double v) {
             p.hummingbird.software_overhead = SimTime::Millis(v);
         }},
    };
    return fields;
}

}  // namespace

std::string
SerializeProfile(const HardwareProfile& profile)
{
    std::ostringstream os;
    os << "# dbscore hardware profile\n";
    for (const Field& field : Fields()) {
        os << field.key << " = " << StrFormat("%g", field.get(profile))
           << "\n";
    }
    return os.str();
}

HardwareProfile
ParseProfile(const std::string& text)
{
    HardwareProfile profile = HardwareProfile::Paper();
    std::istringstream is(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        std::string trimmed = Trim(line);
        if (trimmed.empty() || trimmed[0] == '#') {
            continue;
        }
        auto eq = trimmed.find('=');
        if (eq == std::string::npos) {
            throw ParseError(StrFormat(
                "profile line %zu: expected 'key = value'", line_no));
        }
        std::string key = Trim(trimmed.substr(0, eq));
        std::string value_text = Trim(trimmed.substr(eq + 1));
        char* end = nullptr;
        double value = std::strtod(value_text.c_str(), &end);
        if (value_text.empty() ||
            end != value_text.c_str() + value_text.size()) {
            throw ParseError(StrFormat(
                "profile line %zu: bad numeric value '%s'", line_no,
                value_text.c_str()));
        }
        bool found = false;
        for (const Field& field : Fields()) {
            if (key != field.key) {
                continue;
            }
            const Domain& domain = field.domain;
            bool ok = domain.Contains(value);
            if (ok) {
                field.set(profile, value);
                // A size in MiB below one byte rounds to zero.
                ok = domain.lo == 0.0 || field.get(profile) > 0.0;
            }
            if (!ok) {
                throw ParseError(StrFormat(
                    "profile line %zu: %s = %s is out of range (expected "
                    "%s in [%g, %g])",
                    line_no, key.c_str(), value_text.c_str(),
                    domain.whole ? "a whole number" : "a value", domain.lo,
                    domain.hi));
            }
            found = true;
            break;
        }
        if (!found) {
            throw ParseError(StrFormat(
                "profile line %zu: unknown key '%s'", line_no,
                key.c_str()));
        }
    }
    return profile;
}

std::vector<std::string>
ProfileKeys()
{
    std::vector<std::string> keys;
    keys.reserve(Fields().size());
    for (const Field& field : Fields()) {
        keys.emplace_back(field.key);
    }
    return keys;
}

}  // namespace dbscore
