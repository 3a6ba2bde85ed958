// Background maintenance engine: runs the flushes and merges of a Dataset's
// index trees concurrently on a ThreadPool (exec/thread_pool.h). It only
// schedules: every merge it runs is one LsmTree::MergeComponents call, the
// primary + pk-index pair merge included (core/mutable_bitmap_build.h).
//
// Architecture / threading model of src/exec/:
//
//   Dataset (core/dataset.cc)                 MaintenanceScheduler
//   ------------------------------            ----------------------------
//   MaintenanceCycle (budget overrun; inline at one writer, else on a
//   background thread) and FlushAll:
//     FlushMemtables ── one build per sealed ─► RunAll: component builds
//                       memtable
//     MergeJobs ─┬─ coupled: one job per tree ► RunAll: each job merges
//                │                              its tree to policy
//                └─ decoupled ──────────────► EnqueueMergeRound: per-tree
//                                             FIFO queues, drain workers
//   CorrelatedMerge ── one primary + pk ────► RunAll: one task per
//                      pair merge per round     secondary
//                                             │
//                                             ▼
//                                       ThreadPool (N workers; none at
//                                       threads = 1: RunAll runs inline)
//
//   - Work is fanned out at *tree* granularity: the primary, primary-key,
//     secondary, and deleted-key trees flush and merge concurrently (a
//     correlated round merges the primary and the pk index as one pair,
//     then the secondaries). Merges of one tree are never issued
//     concurrently (per-tree serialization): each tree's merge loop runs
//     inside a single task, and each merge is one scan on that task's
//     thread.
//   - Shared state touched from tasks: Env's PageStore / IoEngine /
//     BufferCache (each internally synchronized; the BufferCache is
//     lock-striped into shards), and each LsmTree's components_ list
//     (guarded by its components_mu_). Dataset-level counters (IngestStats)
//     are relaxed atomics (common/stat_counter.h): they are bumped from
//     concurrent writer threads and the background ingestion pipeline, not
//     just the coordinating thread.
//   - Queue affinity: when MaintenanceOptions::io names a multi-queue
//     IoEngine, RunAll binds task i to device queue (i % queues) for the
//     task's duration (IoQueueScope), so fanned-out flushes and per-tree
//     merges charge independent queue clocks and genuinely overlap in
//     *simulated* time, not just wall-clock. The mapping is by task index,
//     not worker thread, so it is deterministic under work stealing and
//     "helping", and it applies on the serial inline path too (modeled
//     device concurrency does not require host concurrency). With a
//     single-queue engine every binding resolves to queue 0 — bit-for-bit
//     the legacy single-head charging.
//   - Waits use "helping": a thread blocked on task futures runs queued
//     tasks itself, so nested fan-out (a correlated merge job running its
//     secondary phase on RunAll) cannot deadlock the fixed-size pool.
//   - Decoupled merge scheduling (PR 5): EnqueueMergeRound hands merge work
//     to per-tree FIFO queues drained by dedicated lazily-spawned drain
//     workers — NOT the flush pool, so a long merge backlog can never starve
//     the next flush cycle's fan-out. Jobs of one queue key run strictly
//     serially (the per-tree merge serialization rule above); distinct keys
//     drain concurrently. Each queue is bound to device queue
//     (registration-index % io queues) for its jobs' duration, mirroring
//     RunAll's task-index affinity. A *round* is the batch of jobs one flush
//     cycle enqueues; PendingMergeRounds() counts rounds not yet fully
//     retired and is the ingestion pipeline's bounded merge-backlog
//     backpressure signal. The first job error is sticky
//     (merge_error / TakeMergeError) until explicitly taken.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace auxlsm {

class ThreadPool;
class IoEngine;

struct MaintenanceOptions {
  /// Worker threads. 0 = one per hardware thread; 1 = no pool (every
  /// scheduler entry point runs on the caller's thread).
  size_t threads = 0;
  /// Device engine for queue affinity: RunAll binds task i to device queue
  /// (i % queues). Null or single-queue = every task charges queue 0, the
  /// legacy single-head accounting.
  IoEngine* io = nullptr;
};

class MaintenanceScheduler {
 public:
  explicit MaintenanceScheduler(MaintenanceOptions options);
  ~MaintenanceScheduler();

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  /// Resolved worker count (>= 1).
  size_t threads() const { return threads_; }
  /// True when entry points fan out (threads > 1). The worker pool itself
  /// is spawned lazily on first use, so an idle scheduler costs nothing.
  bool parallel() const { return threads_ > 1; }
  /// The worker pool; created on first call, null when not parallel().
  ThreadPool* pool();
  /// Live queue depth of the worker pool WITHOUT creating it (0 when the
  /// pool was never spawned) — the exec.pool_queue_depth gauge.
  size_t PoolQueueDepth();

  /// Runs every task (on the pool when parallel, else inline) and returns
  /// the first non-OK status. All tasks run to completion either way.
  Status RunAll(std::vector<std::function<Status()>>&& tasks);

  // --- Decoupled per-tree merge queues --------------------------------------
  /// Opaque serial-stream key: one tree (or one correlated-merge group).
  /// Jobs sharing a key never run concurrently and run in FIFO order.
  using MergeKey = const void*;
  struct MergeJob {
    MergeKey key = nullptr;
    std::function<Status()> work;
  };

  /// Enqueues one *round* of merge work (the batch one flush cycle hands
  /// over). Jobs are appended to their keys' FIFO queues and drained by
  /// dedicated merge workers, never by the flush pool. The round stays
  /// pending until every one of its jobs finished. Empty rounds are ignored.
  void EnqueueMergeRound(std::vector<MergeJob> jobs);

  /// Rounds whose jobs have not all finished — the merge-backlog depth the
  /// ingestion pipeline backpressures on.
  size_t PendingMergeRounds() const;
  /// Queued + running individual merge jobs (diagnostics / tests).
  size_t PendingMergeJobs() const;

  /// Blocks until PendingMergeRounds() <= limit (bounded backpressure: the
  /// caller waits out only the backlog *excess*, never a full drain). The
  /// common no-backlog case is lock-free — the mutex is only taken once the
  /// relaxed round count exceeds the limit.
  void WaitForMergeRounds(size_t limit);

  /// Blocks until every queue is empty and all jobs finished; returns the
  /// sticky first merge error (which stays sticky — see TakeMergeError).
  Status DrainMerges();

  /// Lock-free fast path for the per-op ingest check: true iff a merge job
  /// has failed since the last TakeMergeError(). Callers take merge_error()
  /// (which locks) only when this fires.
  bool has_merge_error() const {
    return has_merge_error_.load(std::memory_order_acquire);
  }
  /// First non-OK status of any merge job since the last TakeMergeError().
  Status merge_error() const;
  /// Returns and clears the sticky merge error.
  Status TakeMergeError();

 private:
  /// Blocks on `futures`, helping run queued pool tasks meanwhile.
  Status WaitAll(std::vector<std::future<Status>>& futures);

  struct QueuedMergeJob {
    std::function<Status()> work;
    /// Shared per-round countdown (guarded by merge_mu_); the round retires
    /// when it reaches zero.
    std::shared_ptr<size_t> round_remaining;
  };
  struct MergeQueue {
    std::deque<QueuedMergeJob> jobs;
    bool draining = false;   ///< a worker is running this queue's jobs
    uint32_t io_index = 0;   ///< device-queue binding (registration order)
  };
  /// Long-lived merge drain worker: claims a non-draining queue with work,
  /// runs its jobs to empty (serially), repeats; exits on shutdown once no
  /// claimable work remains (the destructor drains, like ThreadPool's).
  void MergeDrainLoop();
  MergeQueue* ClaimQueueLocked() REQUIRES(merge_mu_);

  MaintenanceOptions options_;
  size_t threads_ = 1;
  Mutex pool_mu_{lockrank::kLeaf, "exec.pool_mu"};  // guards lazy pool creation
  std::unique_ptr<ThreadPool> pool_ GUARDED_BY(pool_mu_);  // null until use

  // Merge-queue state (all guarded by merge_mu_ except where noted).
  mutable Mutex merge_mu_{lockrank::kLeaf, "exec.merge_mu"};
  CondVar merge_cv_;
  std::unordered_map<MergeKey, MergeQueue> merge_queues_ GUARDED_BY(merge_mu_);
  size_t merge_jobs_pending_ GUARDED_BY(merge_mu_) = 0;  // queued + running
  size_t merge_rounds_pending_ GUARDED_BY(merge_mu_) = 0;  // unfinished rounds
  /// Relaxed mirror of merge_rounds_pending_ for the per-op fast path.
  std::atomic<size_t> merge_rounds_relaxed_{0};
  size_t idle_merge_workers_ GUARDED_BY(merge_mu_) = 0;
  bool merge_stop_ GUARDED_BY(merge_mu_) = false;
  Status merge_error_ GUARDED_BY(merge_mu_);
  std::atomic<bool> has_merge_error_{false};  // mirrors merge_error_.ok()
  uint32_t next_merge_queue_index_ GUARDED_BY(merge_mu_) = 0;
  std::vector<std::thread> merge_workers_ GUARDED_BY(merge_mu_);
};

}  // namespace auxlsm
