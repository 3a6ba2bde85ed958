// Figure 20 (§6.5): index repair time as data accumulates, at 0% and 50%
// update ratios, comparing DELI-style primary repair (with and without a
// full merge) against the §4.4 secondary repair (with and without the Bloom
// filter optimization).
#include "repair_bench_common.h"

int main() {
  using namespace auxlsm::bench;
  PrintHeader("Fig20", "repair performance vs update ratio");
  PrintNote("full repair every 10K records ingested (paper: every 10M)");
  for (double upd : {0.0, 0.5}) {
    std::printf("--- update ratio %d%% ---\n", int(upd * 100));
    for (RepairMethod m :
         {RepairMethod::kPrimary, RepairMethod::kPrimaryMerge,
          RepairMethod::kSecondary, RepairMethod::kSecondaryBloom}) {
      RepairBenchConfig cfg;
      cfg.digest = "fig20-u" + std::to_string(int(upd * 100));
      cfg.increment = 10000;
      cfg.steps = 5;
      cfg.update_ratio = upd;
      RunRepairBench(m, cfg);
    }
  }
  return 0;
}
