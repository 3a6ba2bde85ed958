// Figure 15 (§6.3.2): (a) impact of the maximum mergeable component size on
// upsert ingestion; (b) impact of the number of secondary indexes, including
// the deleted-key B+-tree baseline. Final sections run the multi-index
// workload on the concurrent maintenance engine (exec/maintenance.h) and on
// a multi-queue device profile (src/io/).
//
// Modeled-time accounting since PR 3: the paper series run on a single-queue
// device, where simulated disk seconds are charged to one head — bit-for-bit
// the legacy DiskModel, so the engine's parallelism only shows in `wall_s`.
// The Fig15-mq section instead binds the engine's fanned-out flushes and
// per-tree merges to the independent queues of an NVMe device profile: the
// device's critical path (`crit_s`, max over queue clocks) drops strictly
// below the single-queue simulated time on the same workload, which is how
// device concurrency — not host concurrency — shortens the modeled
// ingestion story.
//
// Flags: --tiny (CI smoke sizes; also prints the serial Fig15a/Fig15b rows
// as DIGEST lines, pinned in bench/baseline/DIGEST_fig15.txt), --queues=N
// (device queues of the multi-queue section; the paper series stay at 1).
#include <thread>

#include "bench_util.h"

namespace auxlsm {
namespace bench {
namespace {

uint64_t g_ops = 30000;

struct StrategyCase {
  const char* name;
  MaintenanceStrategy strategy;
  bool merge_repair;
};

struct IngestResult {
  double total_s = 0;
  double wall_s = 0;
  double sim_s = 0;
  double crit_s = 0;
};

IngestResult RunIngest(const StrategyCase& sc, uint64_t max_mergeable,
                       size_t num_secondary, size_t threads = 1,
                       uint32_t queues = 1, bool nvme = false) {
  EnvOptions eo = BenchEnv(/*cache_mb=*/4, /*ssd=*/false,
                           /*cache_shards=*/threads > 1 ? 8 : 1);
  // The multi-queue comparison holds the cost parameters fixed and varies
  // only the queue count, so overlap is the sole difference being measured.
  if (nvme) eo.device_profile = DeviceProfile::Nvme(queues);
  Env env(eo);
  DatasetOptions o;
  o.strategy = sc.strategy;
  o.merge_repair = sc.merge_repair;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = max_mergeable;
  o.maintenance_threads = threads;
  o.secondary_indexes.clear();
  for (size_t i = 0; i < num_secondary; i++) {
    o.secondary_indexes.push_back(SecondaryIndexDef::SyntheticAttribute(i));
  }
  Dataset ds(&env, o);
  TweetGenerator gen;
  UpsertWorkloadOptions w;
  w.num_ops = g_ops;
  w.update_ratio = 0.1;  // §6.3.2 default
  WorkloadReport report;
  Stopwatch sw(&env, ds.wal());
  if (!RunUpsertWorkload(&ds, &gen, w, &report).ok()) std::abort();
  return IngestResult{sw.Seconds(), sw.WallSeconds(), sw.IoSeconds(),
                      sw.CriticalPathSeconds()};
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main(int argc, char** argv) {
  using namespace auxlsm::bench;
  using auxlsm::MaintenanceStrategy;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  if (flags.tiny) g_ops = 4000;
  const StrategyCase core_cases[] = {
      {"eager", MaintenanceStrategy::kEager, false},
      {"validation", MaintenanceStrategy::kValidation, true},
      {"validation (no repair)", MaintenanceStrategy::kValidation, false},
      {"mutable-bitmap", MaintenanceStrategy::kMutableBitmap, false},
  };

  PrintHeader("Fig15a", "impact of max mergeable component size (10% upd)");
  const std::pair<const char*, uint64_t> sizes[] = {
      {"512KB", 512u << 10}, {"2MB", 2u << 20}, {"8MB", 8u << 20},
      {"32MB", 32u << 20}};
  for (const auto& [label, max_size] : sizes) {
    for (const auto& sc : core_cases) {
      const IngestResult r = RunIngest(sc, max_size, 1);
      char extra[64];
      std::snprintf(extra, sizeof(extra), "throughput=%.0f ops/s",
                    double(g_ops) / r.total_s);
      PrintRow(sc.name, label, r.total_s, extra);
      if (flags.tiny) {
        PrintDigest(std::string("fig15a-") + sc.name + "-" + label,
                    r.sim_s * 1e6, r.crit_s * 1e6);
      }
    }
  }

  PrintHeader("Fig15b", "impact of number of secondary indexes (10% upd)");
  const StrategyCase sec_cases[] = {
      {"eager", MaintenanceStrategy::kEager, false},
      {"validation", MaintenanceStrategy::kValidation, true},
      {"validation (no repair)", MaintenanceStrategy::kValidation, false},
      {"deleted-key B+tree", MaintenanceStrategy::kDeletedKeyBtree, false},
  };
  for (size_t n = 1; n <= 5; n++) {
    for (const auto& sc : sec_cases) {
      const IngestResult r = RunIngest(sc, 8u << 20, n);
      const double t = r.total_s;
      char extra[64];
      std::snprintf(extra, sizeof(extra), "throughput=%.0f ops/s",
                    double(g_ops) / t);
      PrintRow(sc.name, std::to_string(n) + "-idx", t, extra);
      if (flags.tiny) {
        PrintDigest(std::string("fig15b-") + sc.name + "-" +
                        std::to_string(n) + "-idx",
                    r.sim_s * 1e6, r.crit_s * 1e6);
      }
    }
  }

  // Concurrent maintenance engine on a single-queue device: the more
  // indexes a dataset carries, the more flush/merge work overlaps across the
  // thread pool. With one queue all of it is charged to one head, so only
  // the wall (CPU) component speeds up here; the Fig15-mq section below is
  // where simulated time itself drops.
  const size_t hw = std::max(2u, std::thread::hardware_concurrency());
  PrintHeader("Fig15-mt", "maintenance engine: serial vs " +
                              std::to_string(hw) + " threads (3 idx, 8MB)");
  for (const auto& sc : sec_cases) {
    const IngestResult serial = RunIngest(sc, 8u << 20, 3, 1);
    const IngestResult parallel = RunIngest(sc, 8u << 20, 3, hw);
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "wall_s %.3f -> %.3f (%.2fx) total %.2f -> %.2f (%.2fx)",
                  serial.wall_s, parallel.wall_s,
                  serial.wall_s / parallel.wall_s, serial.total_s,
                  parallel.total_s, serial.total_s / parallel.total_s);
    PrintRow(sc.name, "mt=" + std::to_string(hw), parallel.total_s, extra);
  }

  // Multi-queue device: same workload, NVMe profile with N queues,
  // maintenance_threads=4 so the per-tree flush builds and merges fan out
  // over the pool, each task bound to its own device queue. The reported
  // crit_s — the device's critical path — must sit strictly below the
  // queues=1 simulated time of the same workload: flushes and per-tree
  // merges genuinely overlap in modeled time.
  PrintHeader("Fig15-mq",
              "flush and per-tree merge fan-out on NVMe: queues=1 sim vs "
              "queues=" +
                  std::to_string(flags.queues) + " critical path (mt=4)");
  for (const auto& sc : core_cases) {
    const IngestResult q1 = RunIngest(sc, 8u << 20, 3, 4, 1, /*nvme=*/true);
    const IngestResult qn =
        RunIngest(sc, 8u << 20, 3, 4, flags.queues, /*nvme=*/true);
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "sim_s(q=1) %.3f -> crit_s(q=%u) %.3f (%.2fx overlap)%s",
                  q1.sim_s, flags.queues, qn.crit_s,
                  qn.crit_s > 0 ? q1.sim_s / qn.crit_s : 0.0,
                  qn.crit_s < q1.sim_s ? "" : "  [NO OVERLAP]");
    PrintRow(sc.name, "q=" + std::to_string(flags.queues), qn.crit_s, extra);
  }
  return 0;
}
