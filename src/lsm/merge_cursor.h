// K-way reconciling merge over disk components (flush output is handled
// separately since memtable snapshots are already owned vectors).
//
// Yields entries in ascending key order; for identical keys the entry from
// the newest component wins (out-of-place update semantics, §2.1). Entries
// marked invalid by a component's validity bitmap are skipped, which is how
// merges physically drop entries that repair or the Mutable-bitmap strategy
// marked obsolete (Fig 7/§5).
#pragma once

#include <memory>
#include <vector>

#include "lsm/component.h"

namespace auxlsm {

class MergeCursor {
 public:
  struct Options {
    uint32_t readahead_pages = 32;
    /// Skip entries whose component bitmap bit is set.
    bool respect_bitmaps = true;
    /// Drop anti-matter entries (legal only when the merge includes the
    /// oldest component of the tree).
    bool drop_antimatter = false;
    /// Per-component bitmap overrides (e.g. Side-file snapshots); parallel
    /// to the components vector; null entries fall back to live bitmaps.
    std::vector<std::shared_ptr<Bitmap>> bitmap_overrides;
    /// Inclusive key bounds; empty = unbounded.
    std::string lower_bound;
    std::string upper_bound;
  };

  /// components must be ordered newest first.
  MergeCursor(std::vector<DiskComponentPtr> newest_first, Options options);

  Status Init();
  bool Valid() const { return valid_; }
  Status Next();

  Slice key() const { return cur_key_; }
  Slice value() const { return cur_value_; }
  Timestamp ts() const { return cur_ts_; }
  bool antimatter() const { return cur_antimatter_; }
  /// Which input component (index into the newest-first vector) produced the
  /// current entry.
  size_t source() const { return cur_source_; }
  /// Ordinal of the current entry within its source component.
  uint64_t source_ordinal() const { return cur_ordinal_; }

 private:
  // Advances the winner selection; skips bitmap-invalid and (optionally)
  // anti-matter entries.
  Status FindNext();
  bool EntryVisible(size_t i) const;

  std::vector<DiskComponentPtr> components_;
  Options options_;
  std::vector<Btree::Iterator> iters_;
  bool valid_ = false;
  std::string cur_key_, cur_value_;
  Timestamp cur_ts_ = 0;
  bool cur_antimatter_ = false;
  size_t cur_source_ = 0;
  uint64_t cur_ordinal_ = 0;
};

}  // namespace auxlsm
