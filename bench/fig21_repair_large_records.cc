// Figure 21 (§6.5): repair with large (1KB) records and a 10% update ratio.
// Large records hurt primary repair (more record I/O) but leave the
// key-only secondary repair unaffected.
#include "repair_bench_common.h"

int main() {
  using namespace auxlsm::bench;
  PrintHeader("Fig21", "repair with 1KB records (10% updates)");
  for (RepairMethod m : {RepairMethod::kPrimary, RepairMethod::kSecondary,
                         RepairMethod::kSecondaryBloom}) {
    RepairBenchConfig cfg;
    cfg.digest = "fig21";
    cfg.increment = 8000;
    cfg.steps = 5;
    cfg.update_ratio = 0.1;
    cfg.record_bytes = 1000;
    RunRepairBench(m, cfg);
  }
  return 0;
}
