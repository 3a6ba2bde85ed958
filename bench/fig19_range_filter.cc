// Figure 19 (§6.4.2): range-filter scan performance. Queries over recent
// data prune well for every strategy; queries over old data lose all pruning
// under Validation (newer components must be read for overriding updates),
// lose pruning under Eager once updates widen the filters, and keep pruning
// under Mutable-bitmap.
#include "bench_util.h"

namespace auxlsm {
namespace bench {
namespace {

constexpr uint64_t kRecords = 40000;

// Mean seconds per run; adds the runs' modeled and critical-path
// microseconds to *sim_us and *crit_us.
double RunScan(QueryFixture& f, uint64_t lo, uint64_t hi, ScanResult* out,
               double* sim_us, double* crit_us) {
  // Cold cache per run, as in the paper (5 runs with clean cache).
  double total = 0;
  const int runs = 3;
  for (int i = 0; i < runs; i++) {
    f.env->cache()->Clear();
    Stopwatch sw(f.env.get());
    if (!f.ds->ScanTimeRange(lo, hi, out).ok()) std::abort();
    total += sw.Seconds();
    *sim_us += sw.IoSeconds() * 1e6;
    *crit_us += sw.CriticalPathSeconds() * 1e6;
  }
  return total / runs;
}

void Sweep(const char* series, QueryFixture& f, bool recent,
           uint64_t time_max, const char* suffix, const std::string& digest) {
  // "Days" scaled to fractions of the creation_time domain (2 years in the
  // paper; our domain is [1, time_max]).
  const double fractions[] = {1.0 / 730, 7.0 / 730, 30.0 / 730, 180.0 / 730,
                              365.0 / 730};
  const char* labels[] = {"1d", "7d", "30d", "180d", "365d"};
  for (int i = 0; i < 5; i++) {
    const auto width = uint64_t(fractions[i] * double(time_max)) + 1;
    ScanResult res;
    double t;
    double sim_us = 0, crit_us = 0;
    if (recent) {
      t = RunScan(f, time_max - width, time_max, &res, &sim_us, &crit_us);
    } else {
      t = RunScan(f, 1, width, &res, &sim_us, &crit_us);
    }
    char extra[96];
    std::snprintf(extra, sizeof(extra), "scanned=%llu pruned=%llu",
                  (unsigned long long)res.components_scanned,
                  (unsigned long long)res.components_pruned);
    PrintRow(series, std::string(labels[i]) + suffix, t, extra);
    PrintDigest(digest + "-" + series + "-" + labels[i], sim_us, crit_us);
  }
}

// Every row is serial: one writer, one maintenance thread, one queue.
void RunGroup(const char* title, bool recent, double upd) {
  using auxlsm::MaintenanceStrategy;
  PrintHeader("Fig19", title);
  const char* suffix = upd == 0 ? " upd=0%" : " upd=50%";
  auto eager = BuildQueryFixture(MaintenanceStrategy::kEager, false, upd,
                                 kRecords, 8);
  auto val = BuildQueryFixture(MaintenanceStrategy::kValidation, false, upd,
                               kRecords, 8);
  auto mb = BuildQueryFixture(MaintenanceStrategy::kMutableBitmap, false, upd,
                              kRecords, 8);
  const uint64_t tmax = kRecords + uint64_t(upd * kRecords);
  const std::string digest = std::string("fig19-") +
                             (recent ? "recent" : "old") + "-u" +
                             std::to_string(int(upd * 100));
  Sweep("eager", eager, recent, tmax, suffix, digest);
  Sweep("validation", val, recent, tmax, suffix, digest);
  Sweep("mutable-bitmap", mb, recent, tmax, suffix, digest);
}

}  // namespace
}  // namespace bench
}  // namespace auxlsm

int main() {
  using namespace auxlsm::bench;
  RunGroup("recent data + 50% updates", /*recent=*/true, 0.5);
  RunGroup("old data + 0% updates", /*recent=*/false, 0.0);
  RunGroup("old data + 50% updates", /*recent=*/false, 0.5);
  return 0;
}
