#include "core/mutable_bitmap_build.h"

#include <algorithm>
#include <chrono>

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

Status ConcurrentMerge(Dataset* ds, const std::vector<DiskComponentPtr>& old_p,
                       const std::vector<DiskComponentPtr>& old_k,
                       BuildCcMethod method, ConcurrentMergeStats* stats) {
  ConcurrentMergeStats ignored;
  if (stats == nullptr) stats = &ignored;
  const auto t0 = std::chrono::steady_clock::now();
  auto finish = [&](const Status& st) {
    stats->elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return st;
  };
  uint64_t capacity = 0;
  for (const auto& c : old_p) capacity += c->num_entries();
  stats->input_entries = capacity;

  MergeSteps steps;
  steps.companion = ds->primary_key_index();
  steps.companion_picked = old_k;
  steps.before_install = [stats](DiskComponent* merged) {
    stats->output_entries = merged->num_entries();
    return Status::OK();
  };
  LsmTree* const primary = ds->primary();
  // Only Mutable-bitmap writers touch disk components (their bitmaps); every
  // other strategy's pair merges like any other merge.
  if (ds->options().strategy != MaintenanceStrategy::kMutableBitmap) {
    return finish(primary->MergeComponents(old_p, steps));
  }
  if (method == BuildCcMethod::kNone) {
    // Baseline: stop the world — no writer runs during the merge.
    WriteLatchGuard latch(ds->ingest_latch());
    return finish(primary->MergeComponents(old_p, steps));
  }

  // Writers follow the link from whichever input their lookup found (the pk
  // index's, or the primary's when the dataset keeps none) while the
  // links are published.
  auto link = std::make_shared<BuildLink>(method, capacity);
  auto publish = [&](const std::shared_ptr<BuildLink>& l) {
    for (const auto& c : old_p) c->set_build_link(l);
    for (const auto& c : old_k) c->set_build_link(l);
  };
  // Called with writers drained: a failed build must not leave writers
  // routing deletes into it (and its side-file open) forever.
  auto unpublish = [&]() {
    {
      MutexLock l(link->mu);
      link->side_file_closed = true;
    }
    publish(nullptr);
  };
  auto emit = [&link](const std::string& key) {
    link->emitted_keys.push_back(key);
    link->emitted_count.store(link->emitted_keys.size(),
                              std::memory_order_release);
  };
  // Read-only: the Lock builder takes per-key shared locks but never touches
  // a memtable, so it must not count toward the no-steal seal deferral — a
  // long decoupled merge would otherwise block every flush cycle for its
  // whole scan.
  std::unique_ptr<Transaction> builder_txn;
  if (method == BuildCcMethod::kLock) {
    // Fig 10a: make the new component visible, then scan with per-key
    // shared locks. The scan must not skip by live bitmaps: a delete not yet
    // committed sets a bit that its abort unsets, so each entry is decided
    // under its key lock.
    publish(link);
    builder_txn = ds->BeginReadOnly();
    steps.respect_bitmaps = false;
    steps.entry = [&](const OwnedEntry& e, const MergeSteps::Position& at,
                      bool* keep) {
      ScopedLock sl(ds->locks(), builder_txn->id(), e.key, LockMode::kShared);
      stats->builder_lock_acquisitions++;
      *keep = old_p[at.source]->EntryValid(at.source_ordinal);
      if (*keep) emit(e.key);
      return Status::OK();
    };
  } else {
    // Fig 11a: drain ongoing operations, snapshot the bitmaps, publish; the
    // scan then reads the snapshots without per-key locks.
    WriteLatchGuard drain(ds->ingest_latch());
    for (const auto& c : old_p) {
      steps.bitmap_snapshots.push_back(
          c->bitmap() == nullptr
              ? nullptr
              : std::make_shared<Bitmap>(Bitmap::SnapshotOf(*c->bitmap())));
    }
    publish(link);
    steps.entry = [&](const OwnedEntry& e, const MergeSteps::Position&,
                      bool*) {
      emit(e.key);
      return Status::OK();
    };
  }

  // Install phase, writers drained: catch up (Side-file: close, sort and
  // apply the side-file, Fig 11a), then apply the deletes that reached the
  // new component during the build to its bitmap, which the pk output
  // shares, and unlink.
  steps.drain_writers = &ds->ingest_latch();
  steps.before_install = [&](DiskComponent* merged) -> Status {
    const uint64_t emitted = link->emitted_count.load(std::memory_order_acquire);
    if (method == BuildCcMethod::kSideFile) {
      MutexLock l(link->mu);
      link->side_file_closed = true;
      // Stable sort keeps the delete/rollback order per key.
      std::stable_sort(
          link->side_file.begin(), link->side_file.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
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
    Bitmap* const bitmap = merged->bitmap().get();
    for (uint64_t i = 0; i < emitted; i++) {
      if (link->overlay.Test(i)) {
        bitmap->Set(i);
        stats->overlay_marks++;
      }
    }
    unpublish();
    stats->output_entries = merged->num_entries();
    return Status::OK();
  };

  Status st;
  if (FaultInjector* fault = ds->options().fault_injector; fault != nullptr) {
    st = fault->Hit(failpoints::kConcurrentBuild, ds->env()->io());
  }
  if (st.ok()) st = primary->MergeComponents(old_p, steps);
  if (!st.ok()) {
    WriteLatchGuard drain(ds->ingest_latch());
    unpublish();
    return finish(st);
  }
  // The Lock builder holds no key lock between entries, so its read-only
  // transaction ends here, outside the drain. It has no effects: a commit
  // record the log drops cannot undo the installed merge.
  if (builder_txn != nullptr) builder_txn->Commit();
  return finish(st);
}

}  // namespace auxlsm
