/**
 * @file
 * Textual serialization of hardware profiles.
 *
 * Lets users describe their own system (a different GPU, a faster link,
 * a bigger FPGA) in a simple "section.key = value" file and run every
 * bench/scheduler against it, instead of recompiling the Paper()
 * constants. Unknown keys are rejected so typos fail loudly.
 *
 *   # my-system.profile
 *   gpu.dram_gbps = 900
 *   fpga.num_pes = 256
 *   gpu_link.generation = 4
 */
#ifndef DBSCORE_CORE_PROFILE_IO_H
#define DBSCORE_CORE_PROFILE_IO_H

#include <string>
#include <vector>

#include "dbscore/core/calibration.h"

namespace dbscore {

/** Renders every tunable field as "key = value" lines. */
std::string SerializeProfile(const HardwareProfile& profile);

/**
 * Parses a profile: starts from HardwareProfile::Paper() and applies
 * each "key = value" override. Blank lines and '#' comments allowed.
 * Every key has a domain, so no accepted profile trips a modeled
 * invariant: rates, sizes and per-unit costs lie in [1e-9, 1e9],
 * efficiencies in [1e-9, 1], fixed overheads in [0, 1e9], hardware
 * counts are whole numbers in [1, 32768] (the FPGA tree depth in
 * [1, 32]), and PCIe links have a generation in [1, 5] and [1, 32]
 * lanes.
 *
 * @throws ParseError on unknown keys, malformed values, or a value
 *         outside its key's domain (naming the key and the value)
 */
HardwareProfile ParseProfile(const std::string& text);

/** The names of every recognized profile key. */
std::vector<std::string> ProfileKeys();

}  // namespace dbscore

#endif  // DBSCORE_CORE_PROFILE_IO_H
