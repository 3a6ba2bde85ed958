// A single LSM-tree index: one *active* memory component, zero or more
// *sealed* memory components awaiting background flush, plus a newest-first
// list of immutable disk components (§2.1, Figure 1). A Dataset
// (core/dataset.h) composes several LsmTrees — primary index, primary key
// index, secondary indexes — that flush together.
//
// Sealed memtables are the ingestion pipeline's handoff unit: sealing swaps
// the active memtable for a fresh one under the dataset's exclusive ingest
// latch (brief), and the maintenance cycle builds the sealed contents into
// a disk component without blocking writers. Readers reach sealed entries
// through the Mem* helpers below, which search active-then-sealed (newest
// first); a sealed memtable stays readable via shared_ptr until its disk
// component is installed and the last reader drops it.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/rwlatch.h"
#include "common/thread_annotations.h"
#include "lsm/component.h"
#include "lsm/merge_cursor.h"
#include "lsm/merge_policy.h"
#include "mem/memtable.h"

namespace auxlsm {

struct LsmTreeOptions {
  std::string name = "lsm";
  double bloom_fpr = 0.01;
  /// Build a standard Bloom filter on each disk component's keys.
  bool build_bloom = true;
  /// Additionally build a cache-line blocked Bloom filter (§3.2).
  bool build_blocked_bloom = false;
  /// Attach an all-valid mutable bitmap to each new disk component
  /// (Mutable-bitmap strategy, §5).
  bool attach_bitmap = false;
  /// Maintain a component-level range filter; the extractor maps an entry to
  /// its filter-key value (e.g. the record's creation_time).
  bool maintain_range_filter = false;
  std::function<uint64_t(const Slice& key, const Slice& value)>
      filter_key_extractor;
  std::shared_ptr<MergePolicy> merge_policy;
  uint32_t scan_readahead_pages = 32;
};

/// Where a point lookup found its entry.
struct LookupResult {
  bool found = false;
  OwnedEntry entry;
  bool from_memtable = false;  ///< active or sealed memory component
  /// The hit came from a *sealed* memory component (implies from_memtable).
  /// The Mutable-bitmap strategy records such superseding writes in a
  /// side-list so the install-time bitmap fixup is O(recorded deletes).
  bool from_sealed = false;
  DiskComponentPtr component;  ///< null if from_memtable
  uint64_t ordinal = 0;        ///< position within the disk component
};

struct GetOptions {
  bool use_blocked_bloom = false;
  /// False: search the disk components only.
  bool search_memtable = true;
};

class LsmTree;

/// The steps in which the plain merge, the deleted-key merge (§4.1), merge
/// repair (§4.4, Fig 7) and the primary + pk-index pair merge (§5.1, with
/// §5.3's concurrency control) differ; an empty MergeSteps is the plain
/// merge. Everything else — the component ID, dropping anti-matter only at
/// the oldest component, filters, inherited repaired_ts and max_lsn, the
/// install — is LsmTree::MergeComponents' alone.
struct MergeSteps {
  /// Where a reconciled entry comes from and where it goes.
  struct Position {
    size_t source = 0;            ///< index into the picked run
    uint64_t source_ordinal = 0;  ///< position within picked[source]
    uint64_t ordinal = 0;         ///< position in the output, if kept
  };
  /// Runs on each reconciled entry before the cursor moves past it.
  /// Clearing *keep drops the entry; an error fails the merge.
  std::function<Status(const OwnedEntry& e, const Position& at, bool* keep)>
      entry;
  /// Runs on the built, not yet installed output (its inherited
  /// repaired_ts and max_lsn already set); an error fails the merge.
  std::function<Status(DiskComponent* merged)> before_install;
  /// The bitmaps whose set bits the scan skips: the inputs' live bitmaps;
  /// none (false: the entry step decides, §5.3 Lock); or snapshots parallel
  /// to the picked run (§5.3 Side-file).
  bool respect_bitmaps = true;
  std::vector<std::shared_ptr<Bitmap>> bitmap_snapshots;
  /// Companion output: `companion_picked`, the companion tree's run aligned
  /// with the picked one (the primary key index's, §5.1), is replaced by a
  /// component of the same scan's keys and timestamps without values, built
  /// under the same rules. It shares the output's validity bitmap, if any.
  /// Both runs must still be current before either is replaced. Its entries
  /// are buffered until the output is finished: O(kept entries) memory,
  /// each entry's key plus 24 bytes.
  LsmTree* companion = nullptr;
  std::vector<DiskComponentPtr> companion_picked;
  /// When set, held exclusively across before_install and the install
  /// (§5.3: writers drained).
  RwLatch* drain_writers = nullptr;
};

class LsmTree {
 public:
  LsmTree(Env* env, LsmTreeOptions options);

  Env* env() const { return env_; }
  const LsmTreeOptions& options() const { return options_; }
  const std::string& name() const { return options_.name; }

  // --- Write path -----------------------------------------------------------
  /// Adds (or blindly overwrites) an entry in the active memory component.
  void Put(const Slice& key, const Slice& value, Timestamp ts);
  /// Adds an anti-matter entry for key (§2.1).
  void PutAntimatter(const Slice& key, Timestamp ts);

  /// The active memory component. The raw pointer is stable only while
  /// sealing is excluded (callers hold the dataset's ingest latch); code
  /// that outlives its latch hold (e.g. transaction undo closures) must keep
  /// the shared_ptr from active_memtable() instead.
  Memtable* memtable() { return ActiveMem().get(); }
  std::shared_ptr<Memtable> active_memtable() const { return ActiveMem(); }

  /// The active memory component's range filter; maintained by the Dataset's
  /// strategy code (its widening rules differ per strategy, §3.1/§4.2/§5.2).
  RangeFilter* mem_range_filter() { return ActiveMem()->range_filter(); }

  // --- Memory-component reads (active + sealed, newest first) ---------------
  /// All memory components, newest first (active, then sealed newest-first).
  std::vector<std::shared_ptr<Memtable>> MemtableSet() const;

  /// Searches every memory component, newest first; first hit wins. If
  /// `from_sealed` is non-null it reports whether the hit came from a
  /// sealed (vs. the active) memtable.
  Status GetFromMem(const Slice& key, OwnedEntry* out,
                    bool* from_sealed = nullptr) const;

  /// Ordered reconciled snapshot across all memory components (newest entry
  /// wins per key, by timestamp).
  std::vector<OwnedEntry> MemSnapshot() const;
  std::vector<OwnedEntry> MemSnapshotRange(const Slice& lo,
                                           const Slice& hi) const;

  /// Total bytes across all memory components (flush-trigger input).
  size_t MemBytes() const;
  /// Minimum entry timestamp over non-empty memory components (0 if none).
  Timestamp MemMinTs() const;
  /// True if any non-empty memory component's range filter overlaps [lo, hi]
  /// (a component without filter maintenance always overlaps).
  bool MemOverlaps(uint64_t lo, uint64_t hi) const;

  // --- Point lookup ----------------------------------------------------------
  /// Reconciling lookup: the newest entry for key wins; anti-matter maps to
  /// NotFound.
  Status Get(const Slice& key, OwnedEntry* out,
             const GetOptions& opts = GetOptions()) const;

  /// Raw lookup: returns the newest entry including anti-matter, with its
  /// location (used by maintenance code and the Mutable-bitmap strategy).
  /// A newest entry its component's bitmap marks deleted is not found.
  Status GetRaw(const Slice& key, LookupResult* out,
                const GetOptions& opts = GetOptions()) const;

  // --- Flush & merge ----------------------------------------------------------
  /// Flushes every memory component (sealed then active) into disk
  /// components, inline. The serial path; callers quiesce writers.
  Status Flush();

  /// Seals the active memtable: swaps in a fresh one and queues the old one
  /// for flush. Returns the sealed memtable, or null if it was empty. The
  /// caller must hold the dataset's exclusive ingest latch.
  std::shared_ptr<Memtable> SealMemtable();

  /// Snapshot of the sealed-but-not-yet-installed memtables, oldest first.
  /// Normally at most one entry (the memtable SealMemtable just returned);
  /// a flush cycle whose build failed leaves its memtable here, and the next
  /// cycle re-collects the stragglers so abandoned data is never stranded.
  std::vector<std::shared_ptr<Memtable>> PendingSealed() const {
    MutexLock l(mem_mu_);
    return sealed_;
  }

  /// Builds (but does not install) a disk component from a sealed memtable.
  /// Runs without any latch — writers proceed into the fresh active memtable.
  Result<DiskComponentPtr> BuildFromSealed(
      const std::shared_ptr<Memtable>& sealed);

  /// Installs a component built from `sealed`: prepends it to the component
  /// list, then retires the sealed memtable. The publish order (component
  /// first) keeps every entry reachable by readers throughout. Cannot fail:
  /// a duplicate build (the memtable was already installed) is retired.
  void InstallFlushed(const std::shared_ptr<Memtable>& sealed,
                      DiskComponentPtr component);

  /// Consults the merge policy against the current component list; fills
  /// *picked with the chosen components (newest first) and returns true if a
  /// merge is warranted. Callers then run it with MergeComponents.
  bool PickMergeCandidates(std::vector<DiskComponentPtr>* picked) const;

  /// The one merge routine: reconciles `picked` (a contiguous run of the
  /// newest-first list, still current) into one component with ID (oldest
  /// min_ts, newest max_ts), dropping anti-matter only when the run reaches
  /// the oldest component, and installs it in their place by identity. The
  /// output inherits the inputs' minimum repaired_ts and maximum max_lsn.
  /// On any failure every output file is released and the lists are
  /// unchanged.
  Status MergeComponents(const std::vector<DiskComponentPtr>& picked,
                         const MergeSteps& steps = MergeSteps());

  /// Merges all disk components into one.
  Status MergeAll();

  // --- Component management (used by repair / concurrent builds) -------------
  /// Snapshot of disk components, newest first.
  std::vector<DiskComponentPtr> Components() const;

  /// Atomically replaces components [begin, end) (which must still be the
  /// current ones, identity-compared) with `replacement` (may be null to just
  /// drop). Retired components' files are deleted when the last reference
  /// drops.
  Status ReplaceComponents(const std::vector<DiskComponentPtr>& old_components,
                           DiskComponentPtr replacement);

  size_t NumDiskComponents() const;

  // --- Merge jobs (exec/maintenance.h) ---------------------------------------
  /// Merge-pending accounting: the Dataset's merge jobs for this tree that
  /// have not finished — queued or running on the tree's merge queue
  /// (decoupled), or running inside the maintenance cycle (coupled). The
  /// queue itself serializes per-tree merges; this counter is the observable
  /// backlog for backpressure diagnostics and tests.
  void BeginQueuedMerge() {
    merge_pending_jobs_.fetch_add(1, std::memory_order_relaxed);
  }
  void EndQueuedMerge() {
    merge_pending_jobs_.fetch_sub(1, std::memory_order_release);
  }
  size_t merge_pending_jobs() const {
    return merge_pending_jobs_.load(std::memory_order_acquire);
  }

  /// Registers a hook invoked (outside the tree's locks) after any change
  /// to the disk-component list — flush installs and merge/repair
  /// replacements alike. The Dataset uses it to fence the tuple cache's
  /// in-flight inserts across component turnover (PR 7). Set before
  /// concurrent use begins; not otherwise synchronized.
  using InstallHook = std::function<void()>;
  void set_install_hook(InstallHook hook) { install_hook_ = std::move(hook); }

 private:
  class ComponentBuilder;

  std::shared_ptr<Memtable> ActiveMem() const;

  /// True if `c` is currently the oldest disk component (merges reaching it
  /// may drop anti-matter).
  bool IsOldestComponent(const DiskComponentPtr& c) const;

  /// Sets what a merged output inherits from its inputs `in`: the minimum
  /// repaired_ts, the maximum max_lsn and (when this tree keeps one) the
  /// range filter.
  void InheritFromInputs(DiskComponent* out,
                         const std::vector<DiskComponentPtr>& in,
                         bool includes_oldest) const;

  /// Where `run` starts in components_; fails if it is no longer a current
  /// contiguous run.
  Status FindRun(const std::vector<DiskComponentPtr>& run, size_t* pos) const
      REQUIRES(components_mu_);
  Status CheckCurrent(const std::vector<DiskComponentPtr>& run) const;

  Env* const env_;
  LsmTreeOptions options_;

  // Guards mem_ / sealed_ membership only (contents are internally
  // synchronized). Sealing swaps mem_ under the dataset's exclusive ingest
  // latch; queries that hold no latch snapshot shared_ptrs under this mutex.
  // Rank kTreeMem: InstallFlushed nests components_mu_ inside it, so the two
  // tree locks have a fixed order (mem before components).
  mutable Mutex mem_mu_{lockrank::kTreeMem, "lsm.mem"};
  std::shared_ptr<Memtable> mem_ GUARDED_BY(mem_mu_);
  std::vector<std::shared_ptr<Memtable>> sealed_ GUARDED_BY(mem_mu_);  // oldest first

  // Guards components_ only. Readers snapshot the vector under the lock and
  // work on shared_ptr copies; Flush / ReplaceComponents mutate the vector
  // under the lock, so concurrent merges of *different* trees and lookups
  // during maintenance never race. Per-tree merges must be serialized by the
  // caller (ReplaceComponents identity-compares and rejects a stale pick,
  // so a lost race fails safe, but the maintenance engine never issues two
  // merges for one tree concurrently).
  mutable Mutex components_mu_{lockrank::kTreeComponents, "lsm.components"};
  std::vector<DiskComponentPtr> components_ GUARDED_BY(components_mu_);  // newest first

  std::atomic<size_t> merge_pending_jobs_{0};

  InstallHook install_hook_;
};

}  // namespace auxlsm
