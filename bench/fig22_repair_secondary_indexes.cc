// Figure 22 (§6.5): repair scalability with 5 secondary indexes (10%
// updates). The secondary repair parallelizes across indexes (mostly
// CPU-bound sort+validate); primary repair must push anti-matter through
// every index.
#include "repair_bench_common.h"

int main() {
  using namespace auxlsm::bench;
  PrintHeader("Fig22", "repair with 5 secondary indexes (10% updates)");
  for (RepairMethod m : {RepairMethod::kPrimary, RepairMethod::kSecondary,
                         RepairMethod::kSecondaryBloom}) {
    RepairBenchConfig cfg;
    cfg.digest = "fig22";
    cfg.increment = 8000;
    cfg.steps = 5;
    cfg.update_ratio = 0.1;
    cfg.num_secondaries = 5;
    cfg.parallel_repair = true;
    RunRepairBench(m, cfg);
  }
  return 0;
}
