// Dataset::MetricsSnapshot / DebugString (PR 8): folds every subsystem's
// stats struct and the live backlog gauges into one obs::MetricsSnapshot.
// Pull-based — nothing here runs unless called, so the always-available
// snapshot costs the hot paths nothing.
#include "core/dataset.h"
#include "exec/maintenance.h"

namespace auxlsm {

namespace {

void FoldIo(obs::MetricsSnapshot* s, const std::string& prefix,
            const IoStats& io) {
  s->Set(prefix + ".pages_read", double(io.pages_read));
  s->Set(prefix + ".random_reads", double(io.random_reads));
  s->Set(prefix + ".sequential_reads", double(io.sequential_reads));
  s->Set(prefix + ".pages_written", double(io.pages_written));
  s->Set(prefix + ".cache_hits", double(io.cache_hits));
  s->Set(prefix + ".cache_misses", double(io.cache_misses));
  s->Set(prefix + ".simulated_us", io.simulated_us);
  s->Set(prefix + ".critical_path_us", io.critical_path_us);
}

}  // namespace

obs::MetricsSnapshot Dataset::MetricsSnapshot() {
  obs::MetricsSnapshot s;

  // Ingest counters.
  const IngestStats& in = stats_;
  s.Set("ingest.inserts", double(in.inserts.load()));
  s.Set("ingest.upserts", double(in.upserts.load()));
  s.Set("ingest.deletes", double(in.deletes.load()));
  s.Set("ingest.duplicates_ignored", double(in.duplicates_ignored.load()));
  s.Set("ingest.point_lookups", double(in.ingest_point_lookups.load()));
  s.Set("maintenance.flushes", double(in.flushes.load()));
  s.Set("maintenance.merges", double(in.merges.load()));
  s.Set("maintenance.repairs", double(in.repairs.load()));

  // Robustness counters + health.
  s.Set("maintenance.transient_failures",
        double(mstats_.transient_failures.load()));
  s.Set("maintenance.retries_attempted",
        double(mstats_.retries_attempted.load()));
  s.Set("maintenance.retries_succeeded",
        double(mstats_.retries_succeeded.load()));
  s.Set("maintenance.rounds_abandoned",
        double(mstats_.rounds_abandoned.load()));
  s.Set("maintenance.degraded_transitions",
        double(mstats_.degraded_transitions.load()));
  s.Set("dataset.degraded", health() == DatasetHealth::kDegraded ? 1 : 0);
  s.Set("dataset.mem_component_bytes", double(MemComponentBytes()));

  // WAL counters + live group-commit backlog.
  const WalStats ws = wal_.wal_stats();
  s.Set("wal.records", double(ws.records));
  s.Set("wal.commits", double(ws.commits));
  s.Set("wal.syncs", double(ws.syncs));
  s.Set("wal.batched_commits", double(ws.batched_commits));
  s.Set("wal.commit_latency_us_avg",
        ws.commits > 0 ? ws.commit_latency_us_total / double(ws.commits) : 0);
  s.Set("wal.commit_latency_us_max", ws.commit_latency_us_max);
  const Wal::Backlog wb = wal_.backlog();
  s.Set("wal.commit_waiters", double(wb.commit_waiters));
  s.Set("wal.unsynced_records", double(wb.unsynced_records));
  s.Set("wal.tail_bytes", double(wb.tail_bytes));
  s.Set("wal.sync_in_progress", wb.sync_in_progress ? 1 : 0);

  // Device accounting: storage engine, log engine, page cache.
  FoldIo(&s, "io.storage", env_->stats());
  FoldIo(&s, "io.log", wal_.stats());
  const BufferCacheStats bc = env_->cache()->stats();
  s.Set("cache.page.hits", double(bc.hits));
  s.Set("cache.page.misses", double(bc.misses));
  s.Set("cache.page.evictions", double(bc.evictions));

  // Tuple cache (all-zero when disabled).
  const TupleCacheStats tc = tuple_cache_stats();
  s.Set("cache.tuple.hits", double(tc.hits));
  s.Set("cache.tuple.chain_served", double(tc.chain_served));
  s.Set("cache.tuple.misses", double(tc.misses));
  s.Set("cache.tuple.invalidations", double(tc.invalidations));
  s.Set("cache.tuple.evictions", double(tc.evictions));
  s.Set("cache.tuple.inserts", double(tc.inserts));
  s.Set("cache.tuple.stale_drops", double(tc.stale_drops));
  s.Set("cache.tuple.resident_bytes", double(tc.resident_bytes));

  // Per-tree backlog gauges: merge-queue jobs in flight, sealed memtables
  // awaiting (re-)flush, live memory bytes, installed disk components.
  for (LsmTree* t : AllTrees()) {
    const std::string p = "lsm." + t->options().name;
    s.Set(p + ".merge_pending_jobs", double(t->merge_pending_jobs()));
    s.Set(p + ".sealed_memtables", double(t->PendingSealed().size()));
    s.Set(p + ".mem_bytes", double(t->MemBytes()));
    s.Set(p + ".disk_components", double(t->NumDiskComponents()));
  }

  // Maintenance engine backlog (the pool depth is zero when no pool was
  // ever spawned, the merge backlog on every coupled configuration).
  s.Set("exec.pool_queue_depth", double(maintenance_->PoolQueueDepth()));
  s.Set("exec.merge_rounds_pending",
        double(maintenance_->PendingMergeRounds()));
  s.Set("exec.merge_jobs_pending", double(maintenance_->PendingMergeJobs()));

  // Fault injection activity, when armed.
  if (options_.fault_injector != nullptr) {
    s.Set("fault.total_fires", double(options_.fault_injector->TotalFires()));
  }

  // Tracing activity, when armed.
  if (tracer_ != nullptr) {
    s.Set("trace.dropped_events", double(tracer_->dropped()));
  }

  // External sources (PR 9: the request server's service-side backlog).
  // Copied out under the lock, invoked outside it — a source may take its
  // own locks, and holding ours across that invites ordering cycles.
  std::vector<std::function<void(obs::MetricsSnapshot*)>> sources;
  {
    MutexLock l(metrics_sources_mu_);
    sources.reserve(metrics_sources_.size());
    for (const auto& [id, fn] : metrics_sources_) sources.push_back(fn);
  }
  for (const auto& fn : sources) fn(&s);

  // Registry metrics (latency histograms, io.* request counters, query.*
  // counters) land on top; the registry may carry metrics from other
  // components sharing it, which is the point of one registry per process.
  if (options_.metrics != nullptr) s.Merge(options_.metrics->Snapshot());
  return s;
}

uint64_t Dataset::AddMetricsSource(
    std::function<void(obs::MetricsSnapshot*)> fn) {
  MutexLock l(metrics_sources_mu_);
  const uint64_t id = next_metrics_source_id_++;
  metrics_sources_.emplace_back(id, std::move(fn));
  return id;
}

void Dataset::RemoveMetricsSource(uint64_t id) {
  MutexLock l(metrics_sources_mu_);
  for (auto it = metrics_sources_.begin(); it != metrics_sources_.end(); ++it) {
    if (it->first == id) {
      metrics_sources_.erase(it);
      return;
    }
  }
}

std::string Dataset::DebugString() {
  std::string out = "Dataset metrics (strategy=";
  out += StrategyName(options_.strategy);
  out += ")\n";
  out += MetricsSnapshot().DebugString();
  return out;
}

}  // namespace auxlsm
