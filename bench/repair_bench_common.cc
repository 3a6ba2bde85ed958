#include "repair_bench_common.h"

#include <thread>

namespace auxlsm {
namespace bench {

void RunRepairBench(RepairMethod method, const RepairBenchConfig& cfg) {
  Env env(BenchEnv(/*cache_mb=*/8));
  DatasetOptions o;
  // Paper figures reproduce the serial engine; pin the maintenance path
  // so modeled I/O stays deterministic on multi-core hosts.
  o.maintenance_threads = 1;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = false;  // repairs are triggered explicitly
  o.repair_bloom_opt = method == RepairMethod::kSecondaryBloom;
  o.correlated_merges = method == RepairMethod::kSecondaryBloom;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 8 << 20;
  o.secondary_indexes.clear();
  for (size_t i = 0; i < cfg.num_secondaries; i++) {
    o.secondary_indexes.push_back(SecondaryIndexDef::SyntheticAttribute(i));
  }
  Dataset ds(&env, o);
  TweetGenOptions go;
  if (cfg.record_bytes > 0) {
    go.min_message_bytes = cfg.record_bytes;
    go.max_message_bytes = cfg.record_bytes;
  }
  TweetGenerator gen(go);

  UpsertWorkloadOptions w;
  w.num_ops = cfg.increment;
  w.update_ratio = cfg.update_ratio;

  for (int step = 1; step <= cfg.steps; step++) {
    WorkloadReport report;
    if (!RunUpsertWorkload(&ds, &gen, w, &report).ok()) std::abort();
    if (!ds.FlushAll().ok()) std::abort();

    Stopwatch sw(&env);
    bool threaded = false;
    switch (method) {
      case RepairMethod::kPrimary:
        if (!ds.PrimaryRepair(false).ok()) std::abort();
        break;
      case RepairMethod::kPrimaryMerge:
        if (!ds.PrimaryRepair(true).ok()) std::abort();
        break;
      case RepairMethod::kSecondary:
      case RepairMethod::kSecondaryBloom:
        if (cfg.parallel_repair && cfg.num_secondaries > 1) {
          threaded = true;
          std::vector<std::thread> threads;
          for (size_t i = 0; i < cfg.num_secondaries; i++) {
            threads.emplace_back([&ds, i]() {
              if (!RunStandaloneRepair(&ds, ds.secondary(i)).ok()) {
                std::abort();
              }
            });
          }
          for (auto& t : threads) t.join();
        } else {
          if (!ds.RepairAllSecondaries().ok()) std::abort();
        }
        break;
    }
    const double t = sw.Seconds();
    const std::string x = std::to_string(step * cfg.increment / 1000) + "K";
    PrintRow(RepairMethodName(method), x, t);
    // Threaded repairs interleave their I/O; every other row is serial.
    if (!threaded) {
      PrintDigest(cfg.digest + "-" + RepairMethodSlug(method) + "-" + x,
                  sw.IoSeconds() * 1e6, sw.CriticalPathSeconds() * 1e6);
    }
  }
}

}  // namespace bench
}  // namespace auxlsm
