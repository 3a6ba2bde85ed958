#include "core/dataset.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/hash.h"
#include "core/deleted_key.h"
#include "core/mutable_bitmap_build.h"
#include "exec/maintenance.h"
#include "format/key_codec.h"
#include "io/io_engine.h"

namespace auxlsm {

const char* StrategyName(MaintenanceStrategy s) {
  switch (s) {
    case MaintenanceStrategy::kEager: return "eager";
    case MaintenanceStrategy::kValidation: return "validation";
    case MaintenanceStrategy::kMutableBitmap: return "mutable-bitmap";
    case MaintenanceStrategy::kDeletedKeyBtree: return "deleted-key-btree";
  }
  return "?";
}

SecondaryIndexDef SecondaryIndexDef::UserId() {
  SecondaryIndexDef def;
  def.name = "user_id";
  def.sk_width = 8;
  def.extract = [](const TweetRecord& r) { return EncodeU64(r.user_id); };
  return def;
}

SecondaryIndexDef SecondaryIndexDef::SyntheticAttribute(size_t index_no) {
  if (index_no == 0) return UserId();
  SecondaryIndexDef def;
  def.name = "attr" + std::to_string(index_no);
  def.sk_width = 8;
  def.extract = [index_no](const TweetRecord& r) {
    // Deterministic per-index remix of the user id, so each index has a
    // distinct value distribution over the same domain size.
    return EncodeU64(Mix64(r.user_id * 1000003u + index_no) % 100000);
  };
  return def;
}

LsmTreeOptions Dataset::MakeTreeOptions(const std::string& name,
                                        bool is_primary, bool attach_bitmap,
                                        bool range_filter) const {
  LsmTreeOptions o;
  o.name = name;
  o.bloom_fpr = options_.bloom_fpr;
  o.build_bloom = true;
  o.build_blocked_bloom = options_.build_blocked_bloom;
  o.attach_bitmap = attach_bitmap;
  o.maintain_range_filter = range_filter;
  if (range_filter && is_primary) {
    o.filter_key_extractor = [](const Slice&, const Slice& value) {
      uint64_t t = 0;
      ExtractCreationTime(value, &t);
      return t;
    };
  }
  // Correlated merging is coordinated by the dataset, so per-tree policies
  // stay off in that mode.
  if (!options_.correlated_merges) {
    o.merge_policy = std::make_shared<TieringMergePolicy>(
        options_.merge_size_ratio, options_.max_mergeable_bytes);
  }
  o.scan_readahead_pages = options_.scan_readahead_pages;
  return o;
}

Dataset::Dataset(Env* env, DatasetOptions options)
    : env_(env),
      options_(std::move(options)),
      wal_(DeviceProfile::FromDisk(DiskProfile::Hdd(), options_.log_queues)),
      txns_(&locks_, &wal_) {
  const bool mb = options_.strategy == MaintenanceStrategy::kMutableBitmap;
  // The Mutable-bitmap strategy requires the primary index and the primary
  // key index to merge in lock step so their components keep sharing one
  // validity bitmap (§5.1: "we synchronize the merges ... using the
  // correlated merge policy"). Independent merges would silently drop the
  // sharing and lose bitmap marks.
  if (mb) options_.correlated_merges = true;
  primary_ = std::make_unique<LsmTree>(
      env_, MakeTreeOptions("primary", /*is_primary=*/true,
                            /*attach_bitmap=*/mb,
                            options_.maintain_range_filter));
  if (options_.enable_primary_key_index) {
    pk_index_ = std::make_unique<LsmTree>(
        env_, MakeTreeOptions("pk_index", /*is_primary=*/false,
                              /*attach_bitmap=*/false, false));
  }
  for (const auto& def : options_.secondary_indexes) {
    auto idx = std::make_unique<SecondaryIndex>();
    idx->def = def;
    idx->tree = std::make_unique<LsmTree>(
        env_, MakeTreeOptions(def.name, false, false, false));
    if (options_.strategy == MaintenanceStrategy::kDeletedKeyBtree) {
      idx->deleted_keys = std::make_unique<LsmTree>(
          env_, MakeTreeOptions(def.name + ".deleted", false, false, false));
    }
    secondary_catalog_.emplace(def.name, secondaries_.size());
    secondaries_.push_back(std::move(idx));
  }
  if (options_.tuple_cache_bytes > 0) {
    tuple_cache_ = std::make_unique<TupleCache>(
        options_.tuple_cache_bytes,
        static_cast<uint32_t>(1 + secondaries_.size()),
        options_.fault_injector);
    // Component turnover (flush installs, merges, repair) preserves logical
    // content, but an in-flight reader insert must not straddle it: fence
    // every space's epoch whenever any tree's disk-component list changes.
    TupleCache* cache = tuple_cache_.get();
    for (LsmTree* t : AllTrees()) {
      t->set_install_hook([cache]() { cache->BumpEpochs(); });
    }
  }
  MaintenanceOptions mopts;
  mopts.threads = options_.maintenance_threads;
  mopts.io = env_->io();  // queue affinity for fanned-out maintenance tasks
  maintenance_ = std::make_unique<MaintenanceScheduler>(mopts);
  // Multi-writer commits batch their modeled log syncs (group commit).
  if (multi_writer()) wal_.set_group_commit(true);
  // Thread the fault injector through the WAL seams (Env/cache/IO sites are
  // wired by the Env itself via EnvOptions::fault_injector).
  if (options_.fault_injector != nullptr) {
    wal_.set_fault_injector(options_.fault_injector);
  }
  // Observability (PR 8). Storage-engine metrics are wired by the Env itself
  // (EnvOptions::metrics); the dataset adds its own histograms, the WAL's
  // commit-latency histogram, and the log device's io.log metrics.
  if (options_.metrics != nullptr) {
    hist_ingest_modeled_ = options_.metrics->histogram("ingest.op_modeled_ns");
    hist_ingest_wall_ = options_.metrics->histogram("ingest.op_wall_ns");
    hist_cycle_wall_ = options_.metrics->histogram("maintenance.cycle_wall_ns");
    hist_flush_build_wall_ =
        options_.metrics->histogram("maintenance.flush_build_wall_ns");
    hist_merge_job_wall_ =
        options_.metrics->histogram("maintenance.merge_job_wall_ns");
    ctr_cursor_open_ = options_.metrics->counter("query.cursors_opened");
    ctr_cursor_pull_ = options_.metrics->counter("query.pages_pulled");
    wal_.set_metrics(options_.metrics);
    wal_.io()->set_metrics(options_.metrics, "io.log");
  }
  if (options_.trace_buffer_bytes > 0) {
    tracer_ = std::make_unique<obs::Tracer>(options_.trace_buffer_bytes);
    // Modeled stamps come from the recording thread's bound storage queue —
    // the clock the DIGEST critical path is made of.
    IoEngine* const storage_io = env_->io();
    tracer_->set_modeled_clock(
        [storage_io]() { return storage_io->BoundQueueClock(); });
    wal_.set_tracer(tracer_.get());
    wal_.io()->set_tracer(tracer_.get());
    env_->io()->set_tracer(tracer_.get());  // detached in ~Dataset
  }
}

Dataset::~Dataset() {
  // Background maintenance touches the trees and the WAL; join it first.
  WaitForMaintenance();
  // The tracer dies with the dataset but the Env outlives it: detach.
  if (tracer_ != nullptr) env_->io()->set_tracer(nullptr);
}

std::vector<LsmTree*> Dataset::AllTrees() {
  std::vector<LsmTree*> trees;
  trees.push_back(primary_.get());
  if (pk_index_) trees.push_back(pk_index_.get());
  for (const auto& s : secondaries_) {
    trees.push_back(s->tree.get());
    if (s->deleted_keys) trees.push_back(s->deleted_keys.get());
  }
  return trees;
}

size_t Dataset::MemComponentBytes() const {
  size_t total = primary_->MemBytes();
  if (pk_index_) total += pk_index_->MemBytes();
  for (const auto& s : secondaries_) {
    total += s->tree->MemBytes();
    if (s->deleted_keys) {
      total += s->deleted_keys->MemBytes();
    }
  }
  return total;
}

Status Dataset::JoinFlushCycle() {
  std::thread t;
  {
    MutexLock l(bg_mu_);
    if (bg_thread_.joinable()) t = std::move(bg_thread_);
  }
  if (t.joinable()) t.join();
  MutexLock l(bg_mu_);
  return bg_status_;
}

Status Dataset::WaitForMaintenance() {
  Status s = JoinFlushCycle();
  // Decoupled merge scheduling: quiescing means the merge queues are empty
  // too, and their sticky first error surfaces here (a no-op with empty
  // queues, i.e. on every coupled configuration).
  const Status merge = maintenance_->DrainMerges();
  if (s.ok()) s = merge;
  return s;
}

Status Dataset::TakeBackgroundError() {
  // Pop one error class per call: when both the flush cycle and a merge job
  // failed, the first call returns (and clears) the flush error and leaves
  // the merge error observable for the next call — never silently dropped.
  Status s;
  {
    MutexLock l(bg_mu_);
    if (!bg_status_.ok()) {
      s = bg_status_;
      bg_status_ = Status::OK();
    }
  }
  if (s.ok()) s = maintenance_->TakeMergeError();
  // Degraded mode lifts only once no sticky error remains in either class —
  // taking the flush error while a merge error is still queued keeps ingest
  // fail-fast until that one is taken too.
  bool clear;
  {
    MutexLock l(bg_mu_);
    clear = bg_status_.ok() && !maintenance_->has_merge_error();
  }
  if (clear) degraded_.store(false, std::memory_order_release);
  return s;
}

Status Dataset::RunWithRetry(const std::string& what,
                             const std::function<Status()>& fn) {
  uint32_t attempt = 0;
  while (true) {
    const Status s = fn();
    if (s.ok()) {
      if (attempt > 0) mstats_.retries_succeeded++;
      return s;
    }
    if (!s.retryable()) {
      // Permanent (Corruption, Aborted, ...): re-running cannot help.
      mstats_.rounds_abandoned++;
      return s.WithContext(what);
    }
    mstats_.transient_failures++;
    if (attempt >= options_.maintenance_retry_limit) {
      mstats_.rounds_abandoned++;
      return s.WithContext(what + " (retries exhausted)");
    }
    attempt++;
    mstats_.retries_attempted++;
    if (tracer_ != nullptr) {
      obs::TraceEvent ev;
      ev.SetName(("retry:" + what).c_str());
      ev.cat = "maintenance";
      ev.instant = true;
      ev.wall_ts_us = tracer_->WallNowUs();
      ev.modeled_ts_us = tracer_->ModeledNowUs();
      tracer_->Record(ev);
    }
    // Exponential backoff: charged to the modeled clock (so retry storms
    // show up in simulated time) and bounded-slept for real (so the
    // background thread cannot spin a core under a fault storm).
    const uint64_t backoff = options_.retry_backoff_us
                             << std::min<uint32_t>(attempt, 10);
    if (backoff > 0) {
      env_->io()->ChargeDelay(double(backoff));
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::min<uint64_t>(backoff, 1000)));
    }
  }
}

void Dataset::MarkDegraded(const Status& cause) {
  if (!cause.ok()) {
    MutexLock l(bg_mu_);
    if (bg_status_.ok()) bg_status_ = cause;
  }
  MarkDegraded();
}

void Dataset::MarkDegraded() {
  if (!degraded_.exchange(true, std::memory_order_acq_rel)) {
    mstats_.degraded_transitions++;
    if (tracer_ != nullptr) tracer_->Instant("dataset.degraded", "health");
  }
}

Status Dataset::DegradedError() {
  {
    MutexLock l(bg_mu_);
    if (!bg_status_.ok()) return bg_status_;
  }
  const Status s = maintenance_->merge_error();
  if (!s.ok()) return s;
  // The flag is set but both sticky slots already drained (a concurrent
  // taker raced us): report the state rather than inventing an error.
  return Status::Aborted("dataset degraded: maintenance failed");
}

void Dataset::CheckBudgetAndMaintain(bool in_explicit_txn) {
  if (MemComponentBytes() < options_.mem_budget_bytes) return;
  // Deadlock guard: only the §5.3 Lock-method builder takes record locks
  // during a merge, so only there can "merge waits on a transaction's lock,
  // the transaction's thread waits on the merge" form a cycle no timeout
  // breaks. Threads holding an open explicit transaction skip merge-side
  // waits in exactly that configuration (their overrun is bounded by the
  // transaction's length); every other strategy/CC keeps full backpressure,
  // and the flush-cycle join stays safe everywhere (seal/build/install
  // never take record locks).
  const bool skip_merge_waits =
      in_explicit_txn &&
      options_.strategy == MaintenanceStrategy::kMutableBitmap &&
      options_.build_cc == BuildCcMethod::kLock;
  // The waits' statuses are dropped on purpose: the op already committed,
  // so it must not report a maintenance failure (an op that returns an
  // error has no effect). A failed cycle degrades the dataset instead, and
  // the next op fails fast before any effect.
  if (merge_queues_enabled()) {
    // Bounded merge-backlog backpressure: writers stall only while the merge
    // queues are more than merge_queue_depth flush rounds behind — they wait
    // out the backlog *excess*, never a full drain, so the stall is bounded
    // by the overrun rather than the whole merge schedule.
    if (!skip_merge_waits) {
      maintenance_->WaitForMergeRounds(options_.merge_queue_depth);
    }
    // Memory bound: a writer a whole budget ahead joins the in-flight
    // *flush* cycle only (merges are queued elsewhere), so this wait is
    // bounded by flush time — the decoupling payoff.
    if (MemComponentBytes() >= 2 * options_.mem_budget_bytes) {
      JoinFlushCycle();
    }
  } else if (!skip_merge_waits &&
             MemComponentBytes() >= 2 * options_.mem_budget_bytes) {
    // Coupled backpressure: wait for the whole cycle, merges included —
    // which is why Lock-method explicit-txn threads must skip it (the
    // cycle's merge phase can be blocked on one of their locks). With one
    // writer the cycle runs inline on another calling thread (it takes no
    // record locks): wait until it releases the admission.
    if (multi_writer()) {
      WaitForMaintenance();
    } else {
      MutexLock l(bg_mu_);
      while (bg_active_.load(std::memory_order_acquire)) bg_cv_.Wait(bg_mu_);
    }
  }
  // A failed cycle launches no further one; the next op fails fast.
  if (degraded_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!bg_active_.compare_exchange_strong(expected, true)) {
    return;  // a cycle is already running
  }
  if (!multi_writer()) {
    // One writer: the op that overran runs the cycle inline.
    const Status s = MaintenanceCycle();
    if (!s.ok()) MarkDegraded(s);
    ReleaseAdmission();
    return;
  }
  // Sole launcher from here: reap the previous cycle's thread, start ours.
  std::thread prev;
  {
    MutexLock l(bg_mu_);
    if (bg_thread_.joinable()) prev = std::move(bg_thread_);
  }
  if (prev.joinable()) prev.join();
  MutexLock l(bg_mu_);
  bg_thread_ = std::thread([this]() {
    Status s = MaintenanceCycle();
    // A failed cycle already exhausted its retry budget (or hit a permanent
    // error): store the sticky error and degrade to read-only until the
    // caller takes it (TakeBackgroundError).
    if (!s.ok()) MarkDegraded(s);
    ReleaseAdmission();
  });
}

void Dataset::ReleaseAdmission() {
  {
    MutexLock l(bg_mu_);
    bg_active_.store(false, std::memory_order_release);
  }
  bg_cv_.NotifyAll();
}

Status Dataset::MaintenanceCycle() {
  obs::TraceSpan cycle_span(tracer_.get(), "maintenance.cycle", "maintenance");
  const auto cycle_wall0 = std::chrono::steady_clock::now();
  AUXLSM_ASSIGN_OR_RETURN(const bool flushed,
                          FlushMemtables(/*forced=*/false));
  if (!flushed) return Status::OK();

  // Merges off-latch. Writers only mutate memtables (and, under
  // Mutable-bitmap, old components' bitmaps — which CorrelatedMerge
  // excludes or routes through the §5.3 concurrency-control machinery), so
  // merges are safe against concurrent ingestion. Decoupled mode hands the
  // jobs to the per-tree merge queues instead, so this cycle — and with it
  // the *next* seal/install — never waits on a merge backlog. Every cycle
  // enqueues its round: a tree whose earlier jobs already retired would
  // otherwise never see this cycle's installs. The backlog stays bounded
  // anyway: writers wait at merge_queue_depth before launching a cycle, and
  // each of the at-most-writer_threads threads parked between that wait and
  // the launch can add one stale round.
  Status s;
  if (merge_queues_enabled()) {
    maintenance_->EnqueueMergeRound(MergeJobs());
  } else {
    obs::TraceSpan merge_span(tracer_.get(), "merge", "maintenance");
    std::vector<std::function<Status()>> tasks;
    for (auto& job : MergeJobs()) tasks.push_back(std::move(job.work));
    s = maintenance_->RunAll(std::move(tasks));
  }
  if (hist_cycle_wall_ != nullptr) {
    hist_cycle_wall_->Record(uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - cycle_wall0)
            .count()));
  }
  return s;
}

Result<bool> Dataset::FlushMemtables(bool forced) {
  // Seal: a brief exclusive section swaps every tree's memtable; writers
  // resume into fresh ones while the sealed set is built.
  std::vector<std::pair<LsmTree*, std::shared_ptr<Memtable>>> sealed;
  Lsn flush_lsn = kInvalidLsn;
  {
    obs::TraceSpan seal_span(tracer_.get(), "seal", "maintenance");
    WriteLatchGuard latch(ingest_mu_);
    if (!forced && MemComponentBytes() < options_.mem_budget_bytes) {
      return false;  // another path already resolved the overrun
    }
    // No-steal: an open explicit transaction may have uncommitted effects in
    // the memtables — sealing them would flush uncommitted data to disk and
    // strand the rollback closures. Auto-commit transactions live entirely
    // inside a shared-latch hold, so under the exclusive latch any active
    // count is explicit ones. A budget-triggered flush defers until they
    // close (a later ingest op re-triggers it); FlushAll reports Busy.
    if (txns_.active_transactions() > 0) {
      if (forced) return Status::Busy("flush: explicit transaction open");
      return false;
    }
    for (LsmTree* t : AllTrees()) {
      t->SealMemtable();
      // Collect every pending sealed memtable, not just the fresh one: a
      // prior cycle abandoned by a build failure left its memtables sealed
      // (recoverable, but uninstalled) — this is their re-flush path.
      for (auto& m : t->PendingSealed()) sealed.emplace_back(t, m);
    }
    flush_lsn = wal_.tail_lsn();
  }
  if (sealed.empty()) return false;

  // Build the flushed components off-latch on the scheduler (distinct
  // trees, distinct files; inline at one maintenance thread). Each build
  // runs under the transient-retry policy; a failed build leaves its sealed
  // memtable in place, so no data is lost (WAL + sealed state).
  FaultInjector* const fault = options_.fault_injector;
  std::vector<DiskComponentPtr> built(sealed.size());
  std::vector<std::function<Status()>> builds;
  builds.reserve(sealed.size());
  for (size_t i = 0; i < sealed.size(); i++) {
    builds.push_back([this, fault, &sealed, &built, i]() -> Status {
      const std::string& tree = sealed[i].first->options().name;
      obs::TraceSpan build_span(tracer_.get(),
                                ("flush_build(" + tree + ")").c_str(),
                                "maintenance",
                                int32_t(env_->io()->BoundQueue()));
      const auto wall0 = std::chrono::steady_clock::now();
      const Status s = RunWithRetry("flush(" + tree + ")", [&]() -> Status {
        if (fault != nullptr) {
          AUXLSM_RETURN_NOT_OK(fault->Hit(failpoints::kFlushBuild, env_->io()));
        }
        AUXLSM_ASSIGN_OR_RETURN(
            built[i], sealed[i].first->BuildFromSealed(sealed[i].second));
        return Status::OK();
      });
      if (hist_flush_build_wall_ != nullptr) {
        hist_flush_build_wall_->Record(uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall0)
                .count()));
      }
      return s;
    });
  }
  // A cycle that fails before its install releases every component it
  // built: an uninstalled component's file and write-through cached pages
  // would otherwise outlive it. The sealed memtables stay pending, so the
  // next cycle re-flushes them.
  auto release_built = [&built](const Status& s) {
    for (const auto& c : built) {
      if (c != nullptr) c->MarkRetired();
    }
    return s;
  };
  if (Status s = maintenance_->RunAll(std::move(builds)); !s.ok()) {
    return release_built(s);
  }
  // The primary components this cycle flushed, oldest first: one per sealed
  // memtable (more than one when a failed cycle left its memtables pending).
  // Under Mutable-bitmap each pk-index build shares the validity bitmap of
  // its primary twin, the one built from the memtable sealed with it (§5.1)
  // — before install, since set_bitmap is not synchronized against readers.
  const bool mb = options_.strategy == MaintenanceStrategy::kMutableBitmap;
  std::vector<DiskComponentPtr> flushed_primary, flushed_pk;
  for (size_t i = 0; i < sealed.size(); i++) {
    if (sealed[i].first == primary_.get()) flushed_primary.push_back(built[i]);
    if (sealed[i].first == pk_index_.get()) flushed_pk.push_back(built[i]);
  }
  for (size_t i = 0; mb && i < flushed_pk.size() && i < flushed_primary.size();
       i++) {
    flushed_pk[i]->set_bitmap(flushed_primary[i]->bitmap());
  }

  // Install under the latch: all trees' components appear atomically w.r.t.
  // ingestion, preserving the positional alignment that correlated merges
  // and bitmap sharing rely on. The install failpoint is consulted ONCE,
  // before any tree installs — an injected install error is all-or-nothing
  // (no tree installed), never a partial install that would break the
  // positional alignment.
  {
    obs::TraceSpan install_span(tracer_.get(), "install", "maintenance");
    WriteLatchGuard latch(ingest_mu_);
    if (fault != nullptr) {
      if (Status s = RunWithRetry("install", [&]() -> Status {
            return fault->Hit(failpoints::kInstall, env_->io());
          });
          !s.ok()) {
        return release_built(s);
      }
    }
    for (size_t i = 0; i < sealed.size(); i++) {
      sealed[i].first->InstallFlushed(sealed[i].second, built[i]);
      built[i]->set_max_lsn(flush_lsn);
    }
    if (mb) AUXLSM_RETURN_NOT_OK(FixupFlushedBitmap(flushed_primary));
    stats_.flushes++;
  }
  return true;
}

std::vector<MaintenanceScheduler::MergeJob> Dataset::MergeJobs() {
  // One job per serial merge stream: the whole dataset under correlated
  // merges (every index merges in lock step with the anchor), one per tree
  // otherwise. On the merge queues, jobs sharing a key run serially in FIFO
  // order, preserving the per-tree merge serialization invariant; redundant
  // jobs (the tree's policy is already satisfied when they run) are cheap
  // no-op policy checks. Secondary repair/deleted-key jobs read the
  // primary-key index concurrently with its own merge — safe because readers
  // work on component snapshots and ReplaceComponents swaps atomically.
  std::vector<MaintenanceScheduler::MergeJob> jobs;
  auto add = [&](LsmTree* tree, std::function<Status()> work) {
    tree->BeginQueuedMerge();
    const std::string what = "merge_job(" + tree->options().name + ")";
    jobs.push_back(MaintenanceScheduler::MergeJob{
        tree, [this, tree, what, work = std::move(work)]() {
          // Transient job failures retry the whole job (the work re-picks
          // its merge inputs each run, so a retry sees the current component
          // lists). EndQueuedMerge runs no matter what — a failed job must
          // never leave the accounting wedged.
          FaultInjector* const fault = options_.fault_injector;
          Status s;
          {
            obs::TraceSpan job_span(tracer_.get(), what.c_str(), "merge",
                                    int32_t(env_->io()->BoundQueue()));
            const auto wall0 = std::chrono::steady_clock::now();
            s = RunWithRetry(what, [&]() -> Status {
              if (fault != nullptr) {
                AUXLSM_RETURN_NOT_OK(
                    fault->Hit(failpoints::kMergeJob, env_->io()));
              }
              return work();
            });
            if (hist_merge_job_wall_ != nullptr) {
              hist_merge_job_wall_->Record(uint64_t(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - wall0)
                      .count()));
            }
          }
          tree->EndQueuedMerge();
          // Flag-only degrade: a queued job's error stays sticky in the
          // scheduler, a coupled job's returns through MaintenanceCycle
          // (storing a copy in bg_status_ here would double-report it).
          if (!s.ok()) MarkDegraded();
          return s;
        }});
  };
  if (options_.correlated_merges) {
    add(pk_index_ ? pk_index_.get() : primary_.get(),
        [this]() { return CorrelatedMerge(); });
    return jobs;
  }
  for (LsmTree* t : {primary_.get(), pk_index_.get()}) {
    if (t == nullptr) continue;
    add(t, [this, t]() {
      uint64_t merges = 0;
      const Status s = PlainMergesToPolicy(t, &merges);
      stats_.merges += merges;
      return s;
    });
  }
  for (auto& sp : secondaries_) {
    SecondaryIndex* s = sp.get();
    add(s->tree.get(), [this, s]() {
      uint64_t merges = 0, repairs = 0;
      const Status st = SecondaryMergesToPolicy(s, &merges, &repairs);
      stats_.merges += merges;
      stats_.repairs += repairs;
      return st;
    });
  }
  return jobs;
}

Status Dataset::SecondaryMergesToPolicy(SecondaryIndex* s, uint64_t* merges,
                                        uint64_t* repairs) {
  if (options_.strategy == MaintenanceStrategy::kValidation &&
      options_.merge_repair) {
    return MergeRepairToPolicy(s, merges, repairs);
  }
  if (options_.strategy == MaintenanceStrategy::kDeletedKeyBtree) {
    return DeletedKeyMergesToPolicy(s, merges);
  }
  return PlainMergesToPolicy(s->tree.get(), merges);
}

Status Dataset::MergeFailpoint() {
  FaultInjector* const fault = options_.fault_injector;
  return fault == nullptr ? Status::OK()
                          : fault->Hit(failpoints::kMerge, env_->io());
}

Status Dataset::PlainMergesToPolicy(LsmTree* tree, uint64_t* merges) {
  std::vector<DiskComponentPtr> picked;
  while (tree->PickMergeCandidates(&picked)) {
    AUXLSM_RETURN_NOT_OK(MergeFailpoint());
    AUXLSM_RETURN_NOT_OK(tree->MergeComponents(picked));
    (*merges)++;
  }
  return Status::OK();
}

void Dataset::RecordBitmapFixup(const std::string& pk, Timestamp ts) {
  MutexLock l(fixup_mu_);
  pending_bitmap_fixups_.emplace_back(pk, ts);
}

Status Dataset::FixupFlushedBitmap(
    const std::vector<DiskComponentPtr>& flushed) {
  ingest_mu_.AssertHeld();
  // Deletes/upserts whose old version sat in a *sealed* memtable left only
  // anti-matter (or a newer version) in a newer memtable; the flushed
  // component carries the old version as valid. Mark those entries invalid,
  // exactly as MutableBitmapUpsert would have had the component existed —
  // otherwise the §5 no-reconciliation scans would resurrect them. A cycle
  // re-flushing the memtables of a failed one installs several components,
  // and the old version may sit in any of them, so each is probed.
  //
  // The superseding writes were recorded as they happened (the write found
  // its old version in a sealed memtable — precisely the entries the flushed
  // components now carry as valid), so only they pay a B-tree probe here,
  // not every entry of the active memtable. Keys whose old version was on
  // disk had their bit flipped directly at write time, and fresh inserts
  // cannot supersede a live sealed entry (the uniqueness check rejects
  // them), so nothing else can need a mark.
  std::vector<std::pair<std::string, Timestamp>> pending;
  {
    MutexLock l(fixup_mu_);
    pending.swap(pending_bitmap_fixups_);
  }
  for (size_t i = 0; i < pending.size(); i++) {
    const auto& [key, ts] = pending[i];
    for (const DiskComponentPtr& c : flushed) {
      const Status st = MarkSuperseded(*c, key, ts).status();
      if (!st.ok()) {
        // Re-stash the unprocessed marks (current one included — Set is
        // idempotent): a retried cycle must not lose supersessions, or the
        // §5 scans would resurrect the dead entries.
        MutexLock l(fixup_mu_);
        pending_bitmap_fixups_.insert(pending_bitmap_fixups_.begin(),
                                      pending.begin() + i, pending.end());
        return st.WithContext("bitmap fixup");
      }
    }
  }
  return Status::OK();
}

Result<bool> Dataset::MarkSuperseded(const DiskComponent& c,
                                     const std::string& key, Timestamp ts) {
  LeafEntry entry;
  std::string backing;
  uint64_t ordinal = 0;
  const Status st = c.tree().GetWithOrdinal(key, &entry, &backing, &ordinal);
  if (st.IsNotFound()) return false;
  AUXLSM_RETURN_NOT_OK(st);
  if (entry.antimatter || entry.ts >= ts) return false;  // not older
  if (c.bitmap() == nullptr) {
    // The write superseded this version, but the component cannot record
    // it — returning OK would silently resurrect the old version. Under the
    // Mutable-bitmap strategy every primary/pk component carries a bitmap,
    // so a missing one means the checkpointed catalog and the log disagree.
    return Status::Corruption("bitmap mark for '" + key +
                              "' targets component without bitmap");
  }
  c.bitmap()->Set(ordinal);
  // The bit flip changed the visible outcome for this pk outside the write
  // path's own invalidation window; cut the cache again.
  if (tuple_cache_) tuple_cache_->InvalidatePk(key);
  return true;
}

Status Dataset::FlushAll() {
  AUXLSM_RETURN_NOT_OK(WaitForMaintenance());
  // Take the cycle admission, so no budget-triggered cycle seals or
  // installs between this flush's seal and install.
  {
    MutexLock l(bg_mu_);
    while (bg_active_.exchange(true, std::memory_order_acq_rel)) {
      bg_cv_.Wait(bg_mu_);
    }
  }
  const Status s = FlushMemtables(/*forced=*/true).status();
  ReleaseAdmission();
  return s;
}

Status Dataset::MergeRepairToPolicy(SecondaryIndex* index, uint64_t* merges,
                                    uint64_t* repairs) {
  // Merge repair replaces the plain merge for secondary indexes (§4.4). The
  // tree's own policy is the same tiering policy the options describe.
  std::vector<DiskComponentPtr> picked;
  while (index->tree->PickMergeCandidates(&picked)) {
    AUXLSM_RETURN_NOT_OK(RunWithRetry(
        "repair(" + index->def.name + ")", [&]() -> Status {
          AUXLSM_RETURN_NOT_OK(MergeFailpoint());
          return RunMergeRepair(this, index, picked);
        }));
    (*merges)++;
    (*repairs)++;
  }
  return Status::OK();
}

MergeRange Dataset::PickTieringRange(
    const std::vector<DiskComponentPtr>& comps) const {
  std::vector<ComponentSizeInfo> sizes;
  sizes.reserve(comps.size());
  for (const auto& c : comps) {
    sizes.push_back(ComponentSizeInfo{c->size_bytes()});
  }
  TieringMergePolicy policy(options_.merge_size_ratio,
                            options_.max_mergeable_bytes);
  return policy.PickMerge(sizes);
}

namespace {

std::vector<DiskComponentPtr> SliceRange(
    const std::vector<DiskComponentPtr>& comps, const MergeRange& r) {
  return {comps.begin() + r.begin, comps.begin() + r.end};
}

}  // namespace

Status Dataset::DeletedKeyMergesToPolicy(SecondaryIndex* index,
                                         uint64_t* merges) {
  while (true) {
    // Pick and capture the index slice and its lock-step deleted-keys slice
    // in one consistent view: flush installs run concurrently and would
    // shift positions between the two reads, so the pick holds the ingest
    // latch shared (see CorrelatedMerge).
    MergeRange r;
    std::vector<DiskComponentPtr> picked, dk_picked;
    {
      ReadLatchGuard pick_latch(ingest_mu_);
      auto comps = index->tree->Components();
      r = PickTieringRange(comps);
      if (r.empty() || r.count() < 2) break;
      picked = SliceRange(comps, r);
      auto dk = index->deleted_keys->Components();
      if (dk.size() >= r.end) dk_picked = SliceRange(dk, r);
    }
    AUXLSM_RETURN_NOT_OK(RunWithRetry(
        "merge(" + index->def.name + ".deleted)", [&]() -> Status {
          AUXLSM_RETURN_NOT_OK(MergeFailpoint());
          return RunDeletedKeyMergePicked(this, index, picked, dk_picked);
        }));
    (*merges)++;
  }
  return Status::OK();
}

Status Dataset::CorrelatedMerge() {
  // The correlated merge policy (§4.4) keeps all of a dataset's indexes
  // merging in lock step with the primary key index: all indexes flush
  // together, so their newest-first component lists are positionally aligned
  // and one pick applies to every index.
  LsmTree* anchor = pk_index_ ? pk_index_.get() : primary_.get();
  while (true) {
    // Pick the round's range and capture every tree's input slice in one
    // consistent view. Flush installs may run concurrently and would shift
    // positional indexes between reads of different trees' lists, so the
    // pick holds the ingest latch *shared* — installs hold it exclusively,
    // writers are unaffected. The merges below install by identity
    // (ReplaceComponents), which tolerates components prepended after the
    // capture.
    MergeRange r;
    std::vector<DiskComponentPtr> p_picked, k_picked;
    struct SecPick {
      std::vector<DiskComponentPtr> tree;
      std::vector<DiskComponentPtr> deleted;
    };
    std::vector<SecPick> spicked(secondaries_.size());
    {
      ReadLatchGuard pick_latch(ingest_mu_);
      auto comps = anchor->Components();
      r = PickTieringRange(comps);
      if (r.empty() || r.count() < 2) break;
      // The anchor's pick slices straight off the snapshot the policy saw.
      // The primary list is aligned with it: every flush installs both
      // trees' components, and every pair merge replaces both runs or
      // neither (Recover realigns a catalog that is not).
      if (pk_index_ != nullptr) {
        k_picked = SliceRange(comps, r);
        auto pcomps = primary_->Components();
        assert(pcomps.size() == comps.size());
        p_picked = SliceRange(pcomps, r);
      } else {
        p_picked = SliceRange(comps, r);
      }
      for (size_t i = 0; i < secondaries_.size(); i++) {
        SecondaryIndex* s = secondaries_[i].get();
        auto scomps = s->tree->Components();
        if (scomps.size() < r.end) continue;  // index skipped early flushes
        spicked[i].tree = SliceRange(scomps, r);
        if (s->deleted_keys != nullptr) {
          auto dcomps = s->deleted_keys->Components();
          if (dcomps.size() >= r.end) {
            spicked[i].deleted = SliceRange(dcomps, r);
          }
        }
      }
    }

    // Merge of one tree's captured slice. A merge fails before any
    // component is replaced, so transient failures retry against the same
    // captured slice.
    auto merge_picked =
        [this](LsmTree* t,
               const std::vector<DiskComponentPtr>& picked) -> Status {
      return RunWithRetry("merge(" + t->options().name + ")", [&]() {
        AUXLSM_RETURN_NOT_OK(MergeFailpoint());
        return t->MergeComponents(picked);
      });
    };

    // Phase 1: the primary and primary key index merge as one pair — their
    // outputs must exist before secondary repair validates against them. A
    // failed attempt leaves both lists as they were, so a retry (of the
    // attempt or of the whole job) re-picks the same aligned range. Under
    // Mutable-bitmap, writers flip bits in the very components being
    // merged: with more than one writer the merge runs under the §5.3
    // method build_cc, and with one it stops the world (kNone).
    AUXLSM_RETURN_NOT_OK(RunWithRetry("merge(primary)", [&]() -> Status {
      AUXLSM_RETURN_NOT_OK(MergeFailpoint());
      return ConcurrentMerge(
          this, p_picked, k_picked,
          multi_writer() ? options_.build_cc : BuildCcMethod::kNone);
    }));
    // Phase 2: secondary indexes, one task per index.
    std::vector<std::function<Status()>> stasks;
    std::vector<uint64_t> srepairs(secondaries_.size(), 0);
    for (size_t i = 0; i < secondaries_.size(); i++) {
      SecondaryIndex* s = secondaries_[i].get();
      if (spicked[i].tree.empty()) continue;
      if (options_.strategy == MaintenanceStrategy::kValidation &&
          options_.merge_repair) {
        uint64_t* rc = &srepairs[i];
        stasks.push_back([this, s, picked = spicked[i].tree, rc]() -> Status {
          AUXLSM_RETURN_NOT_OK(
              RunWithRetry("repair(" + s->def.name + ")", [&]() -> Status {
                return RunMergeRepair(this, s, picked);
              }));
          (*rc)++;
          return Status::OK();
        });
      } else {
        stasks.push_back([&merge_picked, s, tpicked = spicked[i].tree,
                          dpicked = spicked[i].deleted]() -> Status {
          AUXLSM_RETURN_NOT_OK(merge_picked(s->tree.get(), tpicked));
          if (!dpicked.empty()) {
            AUXLSM_RETURN_NOT_OK(merge_picked(s->deleted_keys.get(), dpicked));
          }
          return Status::OK();
        });
      }
    }
    AUXLSM_RETURN_NOT_OK(maintenance_->RunAll(std::move(stasks)));
    for (uint64_t c : srepairs) stats_.repairs += c;
    stats_.merges++;
  }
  return Status::OK();
}

Status Dataset::MergeAllIndexes() {
  AUXLSM_RETURN_NOT_OK(WaitForMaintenance());
  AUXLSM_RETURN_NOT_OK(FullPairMerge());
  for (auto& s : secondaries_) {
    AUXLSM_RETURN_NOT_OK(s->tree->MergeAll());
    if (s->deleted_keys) AUXLSM_RETURN_NOT_OK(s->deleted_keys->MergeAll());
  }
  return Status::OK();
}

Status Dataset::FullPairMerge() {
  // Both lists in one view, as in CorrelatedMerge's pick: a flush installed
  // between two reads would misalign the runs, and the pk output would lose
  // that flush's keys or sit behind its pk component.
  std::vector<DiskComponentPtr> pcomps, kcomps;
  {
    ReadLatchGuard l(ingest_mu_);
    pcomps = primary_->Components();
    if (pk_index_) kcomps = pk_index_->Components();
  }
  // Nothing to merge: at most one primary component, beside its twin.
  if (pcomps.size() < 2 && (!pk_index_ || kcomps.size() == pcomps.size())) {
    return Status::OK();
  }
  return ConcurrentMerge(
      this, pcomps, kcomps,
      multi_writer() ? options_.build_cc : BuildCcMethod::kNone);
}

uint64_t Dataset::num_records() const {
  // Reconciling scan over the primary index (exact; test/diagnostic use).
  // Memtables before components (flush-race ordering; see ReconcilingScan).
  auto mem = primary_->MemSnapshot();
  auto comps = primary_->Components();
  MergeCursor::Options mo;
  mo.respect_bitmaps = true;
  mo.drop_antimatter = false;
  MergeCursor cursor(comps, mo);
  if (!cursor.Init().ok()) return 0;
  // Merge the memtable snapshot with the disk cursor, newest wins.
  uint64_t count = 0;
  size_t mi = 0;
  auto mem_key = [&]() { return Slice(mem[mi].key); };
  while (cursor.Valid() || mi < mem.size()) {
    int cmp;
    if (!cursor.Valid()) {
      cmp = -1;  // memtable only
    } else if (mi >= mem.size()) {
      cmp = 1;  // disk only
    } else {
      cmp = mem_key().compare(cursor.key());
    }
    if (cmp < 0) {
      if (!mem[mi].antimatter) count++;
      mi++;
    } else if (cmp > 0) {
      if (!cursor.antimatter()) count++;
      if (!cursor.Next().ok()) break;
    } else {
      // Duplicate key: the copy with the larger timestamp decides liveness.
      const bool antimatter = mem[mi].ts >= cursor.ts()
                                  ? mem[mi].antimatter
                                  : cursor.antimatter();
      if (!antimatter) count++;
      mi++;
      if (!cursor.Next().ok()) break;
    }
  }
  return count;
}

DatasetCatalog Dataset::Checkpoint() {
  // The catalog must reference a stable component set; drain the pipeline.
  WaitForMaintenance();
  DatasetCatalog cat;
  auto snap_tree = [&](LsmTree* t, std::vector<DatasetCatalog::ComponentEntry>* out,
                       bool pk_shares_bitmap) {
    if (t == nullptr) return;
    for (const auto& c : t->Components()) {
      DatasetCatalog::ComponentEntry e;
      e.id = c->id();
      e.meta = c->meta();
      e.repaired_ts = c->repaired_ts();
      e.max_lsn = c->max_lsn();
      if (c->range_filter().has_value() && c->range_filter()->has_value()) {
        e.has_range_filter = true;
        e.filter_min = c->range_filter()->min();
        e.filter_max = c->range_filter()->max();
      }
      if (c->bitmap() != nullptr) {
        e.has_bitmap = true;
        e.bitmap_bits = c->bitmap()->size();
        e.bitmap_words = c->bitmap()->Words();
        e.shares_primary_bitmap = pk_shares_bitmap;
      }
      cat.max_component_lsn = std::max(cat.max_component_lsn, e.max_lsn);
      out->push_back(std::move(e));
    }
  };
  snap_tree(primary_.get(), &cat.primary, false);
  snap_tree(pk_index_.get(), &cat.primary_key,
            options_.strategy == MaintenanceStrategy::kMutableBitmap);
  cat.secondaries.resize(secondaries_.size());
  cat.deleted_keys.resize(secondaries_.size());
  for (size_t i = 0; i < secondaries_.size(); i++) {
    snap_tree(secondaries_[i]->tree.get(), &cat.secondaries[i], false);
    snap_tree(secondaries_[i]->deleted_keys.get(), &cat.deleted_keys[i],
              false);
  }
  // Checkpointing flushes dirty bitmap pages (§5.2): everything up to the
  // current tail is now durable for bitmaps.
  cat.bitmap_checkpoint_lsn = wal_.tail_lsn();
  bitmap_checkpoint_lsn_ = cat.bitmap_checkpoint_lsn;
  return cat;
}

namespace {

// Reopens one disk component from catalog metadata, rebuilding its Bloom
// filters by scanning the keys (a real system would store filter pages in
// the component file; the rebuild preserves behaviour).
Result<DiskComponentPtr> ReopenComponent(
    Env* env, const LsmTreeOptions& topts,
    const DatasetCatalog::ComponentEntry& e) {
  auto c = std::make_shared<DiskComponent>(e.id, env, e.meta);
  c->set_repaired_ts(e.repaired_ts);
  c->set_max_lsn(e.max_lsn);
  if (e.has_range_filter) {
    RangeFilter f;
    f.Expand(e.filter_min);
    f.Expand(e.filter_max);
    c->set_range_filter(f);
  }
  if (e.has_bitmap) {
    c->set_bitmap(std::make_shared<Bitmap>(
        Bitmap::FromWords(e.bitmap_bits, e.bitmap_words)));
  }
  if (topts.build_bloom || topts.build_blocked_bloom) {
    std::vector<uint64_t> hashes;
    hashes.reserve(e.meta.num_entries);
    auto it = c->tree().NewIterator(/*readahead=*/32);
    AUXLSM_RETURN_NOT_OK(it.SeekToFirst());
    while (it.Valid()) {
      hashes.push_back(Hash64(it.key()));
      AUXLSM_RETURN_NOT_OK(it.Next());
    }
    if (topts.build_bloom) {
      c->set_bloom(std::make_unique<BloomFilter>(hashes, topts.bloom_fpr));
    }
    if (topts.build_blocked_bloom) {
      c->set_blocked_bloom(
          std::make_unique<BlockedBloomFilter>(hashes, topts.bloom_fpr));
    }
  }
  return c;
}

Status ReopenTree(Env* env, LsmTree* tree,
                  const std::vector<DatasetCatalog::ComponentEntry>& entries) {
  // Catalog order is newest first; ReplaceComponents with no olds prepends,
  // so install oldest first.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    AUXLSM_ASSIGN_OR_RETURN(DiskComponentPtr c,
                            ReopenComponent(env, tree->options(), *it));
    AUXLSM_RETURN_NOT_OK(tree->ReplaceComponents({}, std::move(c)));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Dataset>> Dataset::Recover(Env* env, Wal* wal,
                                                  const DatasetCatalog& catalog,
                                                  DatasetOptions options,
                                                  RecoveryStats* stats) {
  auto ds = std::make_unique<Dataset>(env, std::move(options));
  AUXLSM_RETURN_NOT_OK(ReopenTree(env, ds->primary_.get(), catalog.primary));
  if (ds->pk_index_) {
    AUXLSM_RETURN_NOT_OK(
        ReopenTree(env, ds->pk_index_.get(), catalog.primary_key));
    // Correlated merges (forced by Mutable-bitmap) slice both lists at the
    // same positions, and a shared bitmap marks ordinals, so the two lists
    // must line up component by component: matching ids and entry counts.
    // A catalog is outside input, so verify before sharing.
    if (ds->options_.correlated_merges) {
      auto pcomps = ds->primary_->Components();
      auto kcomps = ds->pk_index_->Components();
      bool aligned = pcomps.size() == kcomps.size();
      for (size_t i = 0; aligned && i < kcomps.size(); i++) {
        aligned = pcomps[i]->id().min_ts == kcomps[i]->id().min_ts &&
                  pcomps[i]->id().max_ts == kcomps[i]->id().max_ts &&
                  pcomps[i]->num_entries() == kcomps[i]->num_entries();
      }
      if (!aligned) {
        // The reopened primary components still carry correct bitmap
        // *contents* from the catalog; one full pair merge materializes that
        // validity into one primary component, rebuilds the pk index from
        // the same scan, and shares the fresh bitmap again. This must happen
        // before WAL replay: replayed bitmap ops target the front
        // component's shared bitmap.
        AUXLSM_RETURN_NOT_OK(ds->FullPairMerge());
      } else {
        for (size_t i = 0; i < kcomps.size(); i++) {
          if (i < catalog.primary_key.size() &&
              catalog.primary_key[i].shares_primary_bitmap) {
            kcomps[i]->set_bitmap(pcomps[i]->bitmap());
          }
        }
      }
    }
  }
  for (size_t i = 0; i < ds->secondaries_.size(); i++) {
    if (i < catalog.secondaries.size()) {
      AUXLSM_RETURN_NOT_OK(ReopenTree(env, ds->secondaries_[i]->tree.get(),
                                      catalog.secondaries[i]));
    }
    if (ds->secondaries_[i]->deleted_keys && i < catalog.deleted_keys.size()) {
      AUXLSM_RETURN_NOT_OK(ReopenTree(
          env, ds->secondaries_[i]->deleted_keys.get(),
          catalog.deleted_keys[i]));
    }
  }

  Dataset* d = ds.get();
  AUXLSM_RETURN_NOT_OK(RecoverFromWal(
      *wal, catalog.max_component_lsn, catalog.bitmap_checkpoint_lsn,
      [d](const LogRecord& r) { return d->ReplayOp(r); },
      [d](const LogRecord& r) { return d->ReplayBitmap(r); }, stats));
  return ds;
}

}  // namespace auxlsm
