// Shared driver for the repair experiments (Figures 20-22, §6.5): ingest
// records in increments; after each increment, pause and run a full repair
// to bring all secondary indexes up-to-date, reporting the repair time as
// data accumulates.
#pragma once

#include <string>

#include "bench_util.h"

namespace auxlsm {
namespace bench {

enum class RepairMethod {
  kPrimary,        // DELI-style scan of the primary index
  kPrimaryMerge,   // DELI with a full primary merge as a by-product
  kSecondary,      // §4.4 standalone repair via the primary key index
  kSecondaryBloom  // §4.4 + the Bloom filter optimization
};

inline const char* RepairMethodName(RepairMethod m) {
  switch (m) {
    case RepairMethod::kPrimary: return "primary repair";
    case RepairMethod::kPrimaryMerge: return "primary repair (merge)";
    case RepairMethod::kSecondary: return "secondary repair";
    case RepairMethod::kSecondaryBloom: return "secondary repair (bf)";
  }
  return "?";
}

/// The method's name in DIGEST lines.
inline const char* RepairMethodSlug(RepairMethod m) {
  switch (m) {
    case RepairMethod::kPrimary: return "primary";
    case RepairMethod::kPrimaryMerge: return "primary-merge";
    case RepairMethod::kSecondary: return "secondary";
    case RepairMethod::kSecondaryBloom: return "secondary-bf";
  }
  return "?";
}

struct RepairBenchConfig {
  std::string digest = "repair";  ///< DIGEST line prefix, e.g. "fig20-u0"
  uint64_t increment = 10000;     ///< records per ingestion step
  int steps = 5;                  ///< number of repair measurements
  double update_ratio = 0.0;
  size_t record_bytes = 0;        ///< 0 = the default 450-550B tweets
  size_t num_secondaries = 1;
  bool parallel_repair = false;   ///< repair secondary indexes in threads
};

/// Runs the incremental ingest-then-repair loop and prints one row per step,
/// with a DIGEST line for each serial repair.
void RunRepairBench(RepairMethod method, const RepairBenchConfig& cfg);

}  // namespace bench
}  // namespace auxlsm
