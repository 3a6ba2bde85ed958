// The primary + primary-key-index pair merge, and the concurrency control it
// runs under with the Mutable-bitmap strategy (§5.3). The pair is one
// LsmTree::MergeComponents call: one scan of the primary writes both
// outputs, which share one validity bitmap (§5.1) and install both or
// neither. §5.3's methods are steps on that call that coordinate it with
// writers deleting keys concurrently:
//
//  - Lock method (Fig 10): the scan skips nothing by the live bitmaps; each
//    entry takes a shared key lock and re-checks its bit. A writer whose
//    deleted key was already copied marks it in the build's overlay.
//  - Side-file method (Fig 11): the scan reads bitmap snapshots; writers
//    append deleted keys to a side-file, which a catch-up sorts and applies
//    to the overlay.
//  - kNone (the Fig 23 baseline): stop the world — the merge holds the
//    exclusive ingest latch throughout.
//
// Lock and Side-file apply the overlay to the new bitmap and install with
// writers drained.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/dataset.h"
#include "lsm/bitmap.h"

namespace auxlsm {

/// Shared state linking old components to the component under construction.
/// Old components point here (DiskComponent::build_link); writers follow the
/// pointer on delete.
struct BuildLink {
  explicit BuildLink(BuildCcMethod m, uint64_t capacity)
      : method(m), overlay(capacity) {
    emitted_keys.reserve(capacity);
  }

  const BuildCcMethod method;

  /// Keys emitted into the new component so far, ascending. Capacity is
  /// reserved up front so concurrent binary searches over [0, emitted_count)
  /// never race with reallocation. emitted_keys[emitted_count-1] is
  /// "C'.ScannedKey" of Fig 10.
  std::vector<std::string> emitted_keys;
  std::atomic<size_t> emitted_count{0};

  /// Deletions applied to the new component during the build, by position.
  Bitmap overlay;

  // --- Side-file state (guarded by mu) ---------------------------------------
  // Leaf rank: taken by writers under the shared ingest latch and by the
  // builder's catch-up phase under the exclusive latch; never held while
  // acquiring anything else.
  Mutex mu{lockrank::kLeaf, "build.link"};
  bool side_file_closed GUARDED_BY(mu) = false;
  /// (key, is_rollback): deletes append (k, false); transaction rollbacks
  /// append anti-matter (k, true) while the side-file is open (§5.3).
  std::vector<std::pair<std::string, bool>> side_file GUARDED_BY(mu);
};

/// Writer-side hook: called by the Mutable-bitmap ingestion path after it
/// marked a key deleted in an old component that links to an in-progress
/// build. Registers rollback behaviour with txn when provided.
void ApplyDeleteToBuild(BuildLink* link, const Slice& pk, Transaction* txn);

struct ConcurrentMergeStats {
  uint64_t input_entries = 0;
  uint64_t output_entries = 0;
  uint64_t side_file_applied = 0;
  /// Deletes that reached the new component during the build (Lock: by the
  /// writers; Side-file: by the catch-up or after the side-file closed),
  /// applied to its bitmap at install.
  uint64_t overlay_marks = 0;
  uint64_t builder_lock_acquisitions = 0;
  double elapsed_seconds = 0;
};

/// The one pair merge: merges `primary`, a contiguous run of the primary
/// index (still current), and `pk`, the primary key index's run it replaces
/// (the aligned run; all of the pk index for a full merge; empty when the
/// dataset keeps none), in one LsmTree::MergeComponents scan of the primary.
/// The pk output comes from the same scan, and both install or neither.
/// Under Mutable-bitmap the two outputs share one bitmap and `method`
/// coordinates the merge with writers (§5.3): kNone holds the exclusive
/// ingest latch throughout, kLock / kSideFile install with writers drained.
/// Other strategies ignore `method`.
Status ConcurrentMerge(Dataset* dataset,
                       const std::vector<DiskComponentPtr>& primary,
                       const std::vector<DiskComponentPtr>& pk,
                       BuildCcMethod method,
                       ConcurrentMergeStats* stats = nullptr);

}  // namespace auxlsm
