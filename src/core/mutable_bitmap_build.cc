#include "core/mutable_bitmap_build.h"

#include <algorithm>
#include <chrono>

#include "btree/btree_builder.h"
#include "common/hash.h"

namespace auxlsm {

namespace {

/// Binary search over the emitted-keys prefix [0, count).
bool FindEmitted(const BuildLink* link, size_t count, const Slice& pk,
                 uint64_t* pos) {
  const auto begin = link->emitted_keys.begin();
  const auto end = begin + static_cast<long>(count);
  auto it = std::lower_bound(begin, end, pk.view(),
                             [](const std::string& a, std::string_view b) {
                               return std::string_view(a) < b;
                             });
  if (it == end || Slice(*it) != pk) return false;
  *pos = static_cast<uint64_t>(it - begin);
  return true;
}

}  // namespace

void ApplyDeleteToBuild(BuildLink* link, const Slice& pk, Transaction* txn) {
  if (link->method == BuildCcMethod::kLock) {
    // Fig 10b lines 6-7: if the key was already copied (key <= ScannedKey),
    // mark it deleted in the new component too.
    const size_t count = link->emitted_count.load(std::memory_order_acquire);
    uint64_t pos = 0;
    if (count > 0 && FindEmitted(link, count, pk, &pos)) {
      link->overlay.Set(pos);
      if (txn != nullptr) {
        Bitmap* overlay = &link->overlay;
        txn->PushUndo([overlay, pos]() { overlay->Unset(pos); });
      }
    }
    return;
  }
  if (link->method == BuildCcMethod::kSideFile) {
    // Fig 11b lines 6-9: append to the side-file; if it is already closed,
    // apply to the new component directly. The lock is cycled explicitly:
    // the closed case continues lock-free against the immutable emitted
    // prefix, which a scoped guard cannot express.
    link->mu.lock();
    if (!link->side_file_closed) {
      link->side_file.emplace_back(pk.ToString(), false);
      if (txn != nullptr) {
        BuildLink* lk = link;
        std::string key = pk.ToString();
        txn->PushUndo([lk, key]() {
          lk->mu.lock();
          if (!lk->side_file_closed) {
            // Rollback appends an anti-matter key while the side-file is open.
            lk->side_file.emplace_back(key, true);
            lk->mu.unlock();
          } else {
            lk->mu.unlock();
            uint64_t pos = 0;
            const size_t n = lk->emitted_count.load(std::memory_order_acquire);
            if (FindEmitted(lk, n, key, &pos)) lk->overlay.Unset(pos);
          }
        });
      }
      link->mu.unlock();
      return;
    }
    link->mu.unlock();
    const size_t count = link->emitted_count.load(std::memory_order_acquire);
    uint64_t pos = 0;
    if (FindEmitted(link, count, pk, &pos)) {
      link->overlay.Set(pos);
      if (txn != nullptr) {
        Bitmap* overlay = &link->overlay;
        txn->PushUndo([overlay, pos]() { overlay->Unset(pos); });
      }
    }
  }
}

namespace {

struct DualBuilder {
  DualBuilder(Env* env) : primary(env), pk(env) {}
  BtreeBuilder primary;
  BtreeBuilder pk;
  std::vector<uint64_t> hashes;

  Status Add(const Slice& key, const Slice& value, Timestamp ts,
             bool antimatter) {
    AUXLSM_RETURN_NOT_OK(primary.Add(key, value, ts, antimatter));
    AUXLSM_RETURN_NOT_OK(pk.Add(key, Slice(), ts, antimatter));
    hashes.push_back(Hash64(key));
    return Status::OK();
  }
};

// Installs the finished primary/pk component pair, replacing the old ones.
// An output that ends up not installed is retired, so a failure at any step
// leaves none of its pages in the store or the buffer cache.
Status InstallPair(Dataset* ds, const std::vector<DiskComponentPtr>& old_p,
                   const std::vector<DiskComponentPtr>& old_k,
                   DualBuilder* dual, ComponentId id, Timestamp repaired,
                   const Bitmap& overlay, uint64_t emitted,
                   uint64_t* output_entries) {
  BtreeMeta pmeta, kmeta;
  AUXLSM_RETURN_NOT_OK(dual->primary.Finish(&pmeta));
  // The finished primary file now belongs to pcomp, not its builder.
  auto pcomp = std::make_shared<DiskComponent>(id, ds->env(), pmeta);
  if (Status st = dual->pk.Finish(&kmeta); !st.ok()) {
    pcomp->MarkRetired();
    return st;
  }
  *output_entries = pmeta.num_entries;
  auto kcomp = std::make_shared<DiskComponent>(id, ds->env(), kmeta);
  const double fpr = ds->options().bloom_fpr;
  pcomp->set_bloom(std::make_unique<BloomFilter>(dual->hashes, fpr));
  kcomp->set_bloom(std::make_unique<BloomFilter>(dual->hashes, fpr));
  if (ds->options().build_blocked_bloom) {
    pcomp->set_blocked_bloom(
        std::make_unique<BlockedBloomFilter>(dual->hashes, fpr));
    kcomp->set_blocked_bloom(
        std::make_unique<BlockedBloomFilter>(dual->hashes, fpr));
  }
  // One shared validity bitmap (§5.1), seeded with deletes that were applied
  // to the new component during the build.
  auto bitmap = std::make_shared<Bitmap>(pmeta.num_entries);
  for (uint64_t i = 0; i < emitted && i < pmeta.num_entries; i++) {
    if (overlay.Test(i)) bitmap->Set(i);
  }
  pcomp->set_bitmap(bitmap);
  kcomp->set_bitmap(bitmap);
  pcomp->set_repaired_ts(repaired);
  kcomp->set_repaired_ts(repaired);
  // Recovery replays from the max component LSN; the merged pair must keep
  // carrying the newest LSN of its inputs (see LsmTree::MergeComponents).
  Lsn max_lsn = kInvalidLsn;
  for (const auto& c : old_p) max_lsn = std::max(max_lsn, c->max_lsn());
  pcomp->set_max_lsn(max_lsn);
  kcomp->set_max_lsn(max_lsn);
  // Merged range filter: union of inputs (conservative).
  RangeFilter f;
  for (const auto& c : old_p) {
    if (c->range_filter().has_value()) f.Merge(*c->range_filter());
  }
  pcomp->set_range_filter(f);

  LsmTree* const pk_tree = ds->primary_key_index();
  if (pk_tree == nullptr) kcomp->MarkRetired();  // no tree to install into
  if (Status st = ds->primary()->ReplaceComponents(old_p, pcomp); !st.ok()) {
    pcomp->MarkRetired();
    kcomp->MarkRetired();
    return st;
  }
  if (pk_tree != nullptr) {
    if (Status st = pk_tree->ReplaceComponents(old_k, kcomp); !st.ok()) {
      kcomp->MarkRetired();
      return st;
    }
  }
  return Status::OK();
}

// Unpublishes a build on ANY exit after the link went live. A §5.3 build
// that fails mid-scan (I/O error, injected fault, failed builder commit)
// used to leave its BuildLink on the picked components and its side-file
// open forever: writers kept routing deletes into the dead build, and under
// decoupled scheduling the failed job wedged its group queue. The guard
// closes the side-file and clears the links — under a briefly-acquired
// exclusive ingest latch unless the caller already holds it — and the
// success path disarms it after its own under-latch cleanup.
class BuildLinkGuard {
 public:
  BuildLinkGuard(Dataset* ds, bool dataset_latched,
                 const std::vector<DiskComponentPtr>& old_p,
                 const std::vector<DiskComponentPtr>& old_k)
      : ds_(ds), latched_(dataset_latched), old_p_(old_p), old_k_(old_k) {}

  void Arm(std::shared_ptr<BuildLink> link) {
    link_ = std::move(link);
    armed_ = true;
  }
  void Disarm() { armed_ = false; }

  ~BuildLinkGuard() {
    if (!armed_) return;
    auto unpublish = [this]() {
      if (link_ != nullptr) {
        MutexLock l(link_->mu);
        link_->side_file_closed = true;
      }
      for (const auto& c : old_p_) c->set_build_link(nullptr);
      for (const auto& c : old_k_) c->set_build_link(nullptr);
    };
    if (latched_) {
      unpublish();
    } else {
      WriteLatchGuard drain(ds_->ingest_latch());
      unpublish();
    }
  }

 private:
  Dataset* const ds_;
  const bool latched_;
  const std::vector<DiskComponentPtr>& old_p_;
  const std::vector<DiskComponentPtr>& old_k_;
  std::shared_ptr<BuildLink> link_;
  bool armed_ = false;
};

}  // namespace

Status ConcurrentMerge(Dataset* ds, size_t begin, size_t end,
                       BuildCcMethod method, ConcurrentMergeStats* stats,
                       bool dataset_latched) {
  auto old_p_all = ds->primary()->Components();
  auto old_k_all = ds->primary_key_index() != nullptr
                       ? ds->primary_key_index()->Components()
                       : std::vector<DiskComponentPtr>{};
  if (end > old_p_all.size() || begin >= end) {
    return Status::InvalidArgument("bad merge range");
  }
  std::vector<DiskComponentPtr> old_p(old_p_all.begin() + begin,
                                      old_p_all.begin() + end);
  std::vector<DiskComponentPtr> old_k;
  if (!old_k_all.empty()) {
    if (end > old_k_all.size()) {
      return Status::InvalidArgument("pk index components out of sync");
    }
    old_k.assign(old_k_all.begin() + begin, old_k_all.begin() + end);
  }
  return ConcurrentMergePicked(ds, old_p, old_k, method, stats,
                               dataset_latched);
}

Status ConcurrentMergePicked(Dataset* ds,
                             const std::vector<DiskComponentPtr>& old_p,
                             const std::vector<DiskComponentPtr>& old_k,
                             BuildCcMethod method, ConcurrentMergeStats* stats,
                             bool dataset_latched) {
  const auto t0 = std::chrono::steady_clock::now();
  // Runs fn with in-flight writers drained: under a freshly-acquired
  // exclusive ingest latch, or bare when the caller already holds it (the
  // latch is not reentrant, and the analysis cannot see a caller-held
  // capability through a runtime flag — hence the call-under-guard shape
  // instead of a conditional scoped lock).
  auto with_writers_drained = [ds, dataset_latched](auto&& fn) {
    if (dataset_latched) return fn();
    WriteLatchGuard drain(ds->ingest_latch());
    return fn();
  };
  if (old_p.empty()) {
    return Status::InvalidArgument("bad merge range");
  }
  if (!old_k.empty() && old_k.size() != old_p.size()) {
    return Status::InvalidArgument("pk index components out of sync");
  }

  uint64_t capacity = 0;
  for (const auto& c : old_p) capacity += c->num_entries();
  stats->input_entries = capacity;
  const ComponentId id{old_p.back()->id().min_ts, old_p.front()->id().max_ts};
  Timestamp repaired = old_p.front()->repaired_ts();
  for (const auto& c : old_p) repaired = std::min(repaired, c->repaired_ts());
  // Anti-matter may be dropped only when the merge reaches the tree's oldest
  // component; checking against the live list is stable under concurrent
  // flush installs (they only prepend at the newest end).
  const bool drop_antimatter = ds->primary()->IsOldestComponent(old_p.back());

  DualBuilder dual(ds->env());

  if (method == BuildCcMethod::kNone) {
    // Baseline: plain merge with live bitmaps, no writer coordination.
    MergeCursor::Options mo;
    mo.respect_bitmaps = true;
    mo.drop_antimatter = drop_antimatter;
    MergeCursor cursor(old_p, mo);
    AUXLSM_RETURN_NOT_OK(cursor.Init());
    Bitmap empty_overlay(0);
    uint64_t emitted = 0;
    while (cursor.Valid()) {
      AUXLSM_RETURN_NOT_OK(
          dual.Add(cursor.key(), cursor.value(), cursor.ts(),
                   cursor.antimatter()));
      emitted++;
      AUXLSM_RETURN_NOT_OK(cursor.Next());
    }
    AUXLSM_RETURN_NOT_OK(with_writers_drained([&]() -> Status {
      return InstallPair(ds, old_p, old_k, &dual, id, repaired, empty_overlay,
                         0, &stats->output_entries);
    }));
    stats->elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return Status::OK();
  }

  auto link = std::make_shared<BuildLink>(method, capacity);
  BuildLinkGuard guard(ds, dataset_latched, old_p, old_k);
  FaultInjector* fault = ds->options().fault_injector;

  if (method == BuildCcMethod::kLock) {
    // Fig 10a: make the new component visible, then scan with per-key shared
    // locks, re-checking validity under the lock.
    for (const auto& c : old_p) c->set_build_link(link);
    for (const auto& c : old_k) c->set_build_link(link);
    guard.Arm(link);
    if (fault != nullptr) {
      AUXLSM_RETURN_NOT_OK(
          fault->Hit(failpoints::kConcurrentBuild, ds->env()->io()));
    }

    MergeCursor::Options mo;
    mo.respect_bitmaps = false;  // validity re-checked under the lock
    mo.drop_antimatter = drop_antimatter;
    MergeCursor cursor(old_p, mo);
    AUXLSM_RETURN_NOT_OK(cursor.Init());
    // Read-only: the builder takes per-key shared locks but never touches a
    // memtable, so it must not count toward the no-steal seal deferral — a
    // long decoupled merge would otherwise block every flush cycle for its
    // whole scan.
    auto builder_txn = ds->BeginReadOnly();
    while (cursor.Valid()) {
      {
        ScopedLock sl(ds->locks(), builder_txn->id(), cursor.key(),
                      LockMode::kShared);
        stats->builder_lock_acquisitions++;
        const auto& src = old_p[cursor.source()];
        const bool still_valid =
            src->bitmap() == nullptr ||
            !src->bitmap()->Test(cursor.source_ordinal());
        if (still_valid) {
          AUXLSM_RETURN_NOT_OK(dual.Add(cursor.key(), cursor.value(),
                                        cursor.ts(), cursor.antimatter()));
          link->emitted_keys.push_back(cursor.key().ToString());
          link->emitted_count.store(link->emitted_keys.size(),
                                    std::memory_order_release);
        }
      }
      AUXLSM_RETURN_NOT_OK(cursor.Next());
    }
    AUXLSM_RETURN_NOT_OK(builder_txn->Commit());

    // Drain in-flight writers, install, unlink.
    AUXLSM_RETURN_NOT_OK(with_writers_drained([&]() -> Status {
      const uint64_t emitted =
          link->emitted_count.load(std::memory_order_acquire);
      AUXLSM_RETURN_NOT_OK(InstallPair(ds, old_p, old_k, &dual, id, repaired,
                                       link->overlay, emitted,
                                       &stats->output_entries));
      for (const auto& c : old_p) c->set_build_link(nullptr);
      for (const auto& c : old_k) c->set_build_link(nullptr);
      guard.Disarm();
      return Status::OK();
    }));
  } else {
    // Side-file method, Fig 11a.
    std::vector<std::shared_ptr<Bitmap>> snapshots;
    // Initialization phase: drain ongoing operations, snapshot bitmaps,
    // publish the link.
    with_writers_drained([&]() {
      for (const auto& c : old_p) {
        snapshots.push_back(
            c->bitmap() == nullptr
                ? nullptr
                : std::make_shared<Bitmap>(Bitmap::SnapshotOf(*c->bitmap())));
      }
      for (const auto& c : old_p) c->set_build_link(link);
      for (const auto& c : old_k) c->set_build_link(link);
      guard.Arm(link);
    });
    if (fault != nullptr) {
      AUXLSM_RETURN_NOT_OK(
          fault->Hit(failpoints::kConcurrentBuild, ds->env()->io()));
    }

    // Build phase: scan against the snapshots; no per-key locks.
    MergeCursor::Options mo;
    mo.respect_bitmaps = true;
    mo.bitmap_overrides = snapshots;
    mo.drop_antimatter = drop_antimatter;
    MergeCursor cursor(old_p, mo);
    AUXLSM_RETURN_NOT_OK(cursor.Init());
    while (cursor.Valid()) {
      AUXLSM_RETURN_NOT_OK(dual.Add(cursor.key(), cursor.value(), cursor.ts(),
                                    cursor.antimatter()));
      link->emitted_keys.push_back(cursor.key().ToString());
      link->emitted_count.store(link->emitted_keys.size(),
                                std::memory_order_release);
      AUXLSM_RETURN_NOT_OK(cursor.Next());
    }

    // Catch-up phase: close the side-file under the dataset latch, sort it,
    // apply, install. The side-file mutex stays held across the sort/apply —
    // writers are drained so it is uncontended; holding it just satisfies the
    // guarded-field discipline without a behavior change.
    AUXLSM_RETURN_NOT_OK(with_writers_drained([&]() -> Status {
      size_t emitted = 0;
      {
        MutexLock l(link->mu);
        link->side_file_closed = true;
        // Stable sort keeps the delete/rollback order per key.
        std::stable_sort(link->side_file.begin(), link->side_file.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         });
        emitted = link->emitted_count.load(std::memory_order_acquire);
        for (const auto& [key, is_rollback] : link->side_file) {
          uint64_t pos = 0;
          if (!FindEmitted(link.get(), emitted, key, &pos)) continue;
          if (is_rollback) {
            link->overlay.Unset(pos);
          } else {
            link->overlay.Set(pos);
            stats->side_file_applied++;
          }
        }
      }
      AUXLSM_RETURN_NOT_OK(InstallPair(ds, old_p, old_k, &dual, id, repaired,
                                       link->overlay, emitted,
                                       &stats->output_entries));
      for (const auto& c : old_p) c->set_build_link(nullptr);
      for (const auto& c : old_k) c->set_build_link(nullptr);
      guard.Disarm();
      return Status::OK();
    }));
  }

  stats->elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return Status::OK();
}

}  // namespace auxlsm
