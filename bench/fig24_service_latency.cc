// Service-layer latency vs offered load (PR 9; "fig24" extends the paper's
// §6 evaluation to the network edge, in the spirit of Fig 24-style
// latency/throughput studies).
//
// Methodology: an open-loop driver (workload/open_loop.h) generates Poisson
// arrivals on the MODELED clock and replays them through the request server
// (src/server/). Because arrivals are fixed in advance, a server that falls
// behind queues subsequent arrivals instead of throttling them — latency
// diverges as offered load approaches the service capacity, which is the
// shape this figure reports per maintenance strategy:
//
//   1. capacity probe: the script with no arrival stamps; its modeled
//      makespan gives the strategy's saturation throughput.
//   2. parity gate: at low offered load the server-served results must be
//      row-identical to the same script replayed in-process (one checksum
//      comparison; a mismatch fails the binary).
//   3. load sweep: p50/p90/p99 modeled latency at fractions of capacity.
//
// Serial sections (queues=1, writer_threads=1, maintenance_threads=1,
// single dispatch thread) are fully deterministic and print DIGEST lines
// the CI smoke job pins across --queues=1 and --queues=4 runs. The
// multi-queue section binds M connections over --queues device queues
// (connection i -> queue i % Q) and reports how modeled overlap moves the
// latency/throughput curve; it is diagnostic, not pinned.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "server/server.h"
#include "workload/open_loop.h"

namespace auxlsm {
namespace bench {
namespace {

struct Sizes {
  uint64_t preload;
  uint64_t ops;
  std::vector<double> load_fractions;  ///< of probed capacity
};

struct Fixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<TweetGenerator> gen;
};

Fixture MakeFixture(MaintenanceStrategy strategy, uint32_t queues,
                    uint64_t preload, obs::MetricsRegistry* metrics) {
  Fixture f;
  EnvOptions eo = BenchEnv(/*cache_mb=*/8, /*ssd=*/false, /*cache_shards=*/1,
                           queues);
  // The buffer cache holds about a quarter of the preloaded pages (about
  // 6.5 records per 4 KiB page across the dataset's trees): a cache that
  // fits the whole dataset serves every read for free, and the four
  // strategies' read paths — the point of comparing them — would print
  // identical rows.
  eo.cache_pages = preload / 25;
  eo.metrics = metrics;
  f.env = std::make_unique<Env>(eo);
  DatasetOptions o;
  o.strategy = strategy;
  o.mem_budget_bytes = 1 << 20;
  o.max_mergeable_bytes = 4 << 20;
  o.maintenance_threads = 1;
  o.metrics = metrics;
  f.ds = std::make_unique<Dataset>(f.env.get(), o);
  f.gen = std::make_unique<TweetGenerator>();
  if (!LoadRecords(f.ds.get(), f.gen.get(), preload).ok()) std::abort();
  if (!f.ds->FlushAll().ok()) std::abort();
  return f;
}

OpenLoopOptions ScriptOptions(uint64_t ops, double offered) {
  OpenLoopOptions o;
  o.num_ops = ops;
  o.offered_ops_per_sec = offered;
  o.get_fraction = 0.4;
  o.query_fraction = 0.1;
  o.range_width = 50;
  o.limit = 10;
  o.page_size = 0;  // unpaginated: one response per query
  return o;
}

std::string LatencyExtra(const OpenLoopReport& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "p50_us=%.1f p90_us=%.1f p99_us=%.1f achieved_ops_s=%.0f "
                "errs=%" PRIu64,
                r.latency.p50, r.latency.p90, r.latency.p99,
                r.achieved_ops_per_sec, r.errors);
  return buf;
}

/// One served run on a fresh fixture: M connections, per-send polling at
/// low load (parity configuration) or batched polling otherwise. The
/// snapshot is taken while the server is still alive, so it carries the
/// server.* gauges its metrics source contributes.
OpenLoopReport ServeScript(MaintenanceStrategy strategy, uint32_t queues,
                           uint64_t preload,
                           const std::vector<server::Request>& script,
                           size_t connections, size_t poll_every,
                           obs::MetricsRegistry* metrics,
                           obs::MetricsSnapshot* snap_out = nullptr) {
  Fixture f = MakeFixture(strategy, queues, preload, metrics);
  server::ServerOptions so;
  so.metrics = metrics;
  server::RequestServer srv(f.ds.get(), so);
  OpenLoopReport r;
  if (!RunOpenLoopWorkload(&srv, script, connections, poll_every, &r).ok()) {
    std::fprintf(stderr, "fig24: served run failed\n");
    std::exit(1);
  }
  if (snap_out != nullptr) *snap_out = f.ds->MetricsSnapshot();
  return r;
}

}  // namespace

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  const Sizes sz = flags.tiny ? Sizes{1500, 600, {0.25, 0.9}}
                              : Sizes{8000, 4000, {0.25, 0.6, 0.9, 1.3}};
  PrintHeader("fig24", "service latency vs offered load (open-loop server)");
  PrintNote("arrivals are Poisson on the modeled clock; offered load is a "
            "fraction of each strategy's probed capacity");

  BenchReport report("fig24");
  const bool want_metrics = !flags.metrics_json.empty();
  obs::MetricsRegistry registry;  // armed on the last section only

  const MaintenanceStrategy strategies[] = {
      MaintenanceStrategy::kEager, MaintenanceStrategy::kValidation,
      MaintenanceStrategy::kMutableBitmap, MaintenanceStrategy::kDeletedKeyBtree};

  for (MaintenanceStrategy strategy : strategies) {
    const std::string name = StrategyName(strategy);

    // 1. Capacity probe: no arrival stamps — back-to-back service on the
    // modeled clock; makespan gives the saturation throughput.
    Fixture probe_f = MakeFixture(strategy, /*queues=*/1, sz.preload, nullptr);
    const std::vector<server::Request> probe_script =
        MakeOpenLoopScript(probe_f.gen.get(), ScriptOptions(sz.ops, 0));
    server::RequestServer probe_srv(probe_f.ds.get(), server::ServerOptions{});
    OpenLoopReport probe;
    if (!RunOpenLoopWorkload(&probe_srv, probe_script, 1, 16, &probe).ok()) {
      std::fprintf(stderr, "fig24: capacity probe failed\n");
      return 1;
    }
    const double capacity = probe.achieved_ops_per_sec;
    PrintRow("fig24-capacity/" + name, "saturated", probe.makespan_us / 1e6,
             LatencyExtra(probe));
    PrintDigest("fig24-" + name + "-probe", probe.latency.p50,
                probe.latency.p99);
    report.AddSection(name + "/probe", probe.ops, probe.makespan_us,
                      probe.latency.p99);

    // 2+3. Load sweep on fresh serial fixtures; the lowest load doubles as
    // the parity gate against the in-process replay of the same script.
    bool parity_checked = false;
    for (double fraction : sz.load_fractions) {
      const double offered = capacity * fraction;
      // Script generation continues a generator that produced the same
      // preload, so point gets draw from the fixture's key population.
      TweetGenerator script_gen;
      for (uint64_t i = 0; i < sz.preload; i++) script_gen.Next();
      const std::vector<server::Request> script =
          MakeOpenLoopScript(&script_gen, ScriptOptions(sz.ops, offered));

      const bool parity_run = !parity_checked;
      const OpenLoopReport served = ServeScript(
          strategy, /*queues=*/1, sz.preload, script,
          /*connections=*/4, /*poll_every=*/parity_run ? 1 : 8, nullptr);
      char x[32];
      std::snprintf(x, sizeof(x), "%.2fxCap", fraction);
      PrintRow("fig24-load/" + name, x, served.makespan_us / 1e6,
               LatencyExtra(served));
      report.AddSection(name + "/" + x, served.ops, served.makespan_us,
                        served.latency.p99);
      if (fraction == 0.9) {
        PrintDigest("fig24-" + name + "-load90", served.latency.p50,
                    served.latency.p99);
      }

      if (parity_run) {
        parity_checked = true;
        Fixture base = MakeFixture(strategy, 1, sz.preload, nullptr);
        OpenLoopReport direct;
        if (!RunOpenLoopInProcess(base.ds.get(), script, &direct).ok()) {
          std::fprintf(stderr, "fig24: in-process replay failed\n");
          return 1;
        }
        if (direct.result_checksum != served.result_checksum ||
            direct.rows != served.rows || direct.ok != served.ok ||
            direct.not_found != served.not_found) {
          std::fprintf(stderr,
                       "fig24: PARITY MISMATCH (%s): served "
                       "checksum=%016" PRIx64 " rows=%" PRIu64
                       " vs in-process checksum=%016" PRIx64 " rows=%" PRIu64
                       "\n",
                       name.c_str(), served.result_checksum, served.rows,
                       direct.result_checksum, direct.rows);
          return 1;
        }
        PrintNote("parity ok (" + name + "): served results row-identical "
                  "to in-process replay");
      }
    }
  }

  // Multi-queue section (diagnostic, not pinned): M connections spread over
  // --queues device queues; modeled service overlaps across queues, so the
  // same offered load sees lower queueing delay.
  {
    const MaintenanceStrategy strategy = MaintenanceStrategy::kEager;
    Fixture cap_f = MakeFixture(strategy, 1, sz.preload, nullptr);
    const std::vector<server::Request> cap_script =
        MakeOpenLoopScript(cap_f.gen.get(), ScriptOptions(sz.ops, 0));
    server::RequestServer cap_srv(cap_f.ds.get(), server::ServerOptions{});
    OpenLoopReport cap;
    if (!RunOpenLoopWorkload(&cap_srv, cap_script, 1, 16, &cap).ok()) return 1;

    TweetGenerator script_gen;
    for (uint64_t i = 0; i < sz.preload; i++) script_gen.Next();
    const std::vector<server::Request> script = MakeOpenLoopScript(
        &script_gen, ScriptOptions(sz.ops, cap.achieved_ops_per_sec * 0.9));
    obs::MetricsSnapshot snap;
    const OpenLoopReport served =
        ServeScript(strategy, flags.queues, sz.preload, script,
                    /*connections=*/8, /*poll_every=*/8,
                    want_metrics ? &registry : nullptr,
                    want_metrics ? &snap : nullptr);
    char x[32];
    std::snprintf(x, sizeof(x), "q%u", flags.queues);
    PrintRow("fig24-multiqueue/eager", x, served.makespan_us / 1e6,
             LatencyExtra(served));
    report.AddSection(std::string("multiqueue/") + x, served.ops,
                      served.makespan_us, served.latency.p99);
    if (want_metrics) report.SetSnapshot(snap);
  }

  if (want_metrics) report.WriteTo(flags.metrics_json);
  return 0;
}

}  // namespace bench
}  // namespace auxlsm

int main(int argc, char** argv) { return auxlsm::bench::Main(argc, argv); }
