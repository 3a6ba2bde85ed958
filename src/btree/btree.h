// Read side of the immutable disk B+-tree: point lookups, range iteration.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "btree/btree_builder.h"
#include "btree/btree_page.h"
#include "common/result.h"
#include "env/env.h"

namespace auxlsm {

class Btree {
 public:
  Btree(Env* env, BtreeMeta meta) : env_(env), meta_(std::move(meta)) {}

  const BtreeMeta& meta() const { return meta_; }
  Env* env() const { return env_; }

  /// Point lookup. Returns NotFound if the key is absent. Anti-matter
  /// entries are returned (with entry.antimatter == true); reconciliation is
  /// the LSM layer's job.
  Status Get(const Slice& key, LeafEntry* entry, std::string* backing) const;

  /// Like Get but also reports the entry's ordinal position within the
  /// component (for validity-bitmap addressing).
  Status GetWithOrdinal(const Slice& key, LeafEntry* entry,
                        std::string* backing, uint64_t* ordinal) const;

  /// Forward iterator over the tree. Valid() is false when exhausted.
  class Iterator {
   public:
    Iterator(const Btree* tree, uint32_t readahead_pages)
        : tree_(tree), readahead_(readahead_pages) {}

    Status SeekToFirst();
    Status Seek(const Slice& target);
    Status Next();
    bool Valid() const { return valid_; }

    Slice key() const { return entry_.key; }
    Slice value() const { return entry_.value; }
    uint64_t ts() const { return entry_.ts; }
    bool antimatter() const { return entry_.antimatter; }
    /// Ordinal of the current entry within the component.
    uint64_t ordinal() const;

   private:
    Status LoadLeaf(uint32_t page_no);
    Status DecodeCurrent();

    const Btree* tree_;
    uint32_t readahead_;
    bool valid_ = false;
    uint32_t leaf_page_ = 0;
    BtreePage page_;
    int slot_ = 0;
    LeafEntry entry_;
  };

  Iterator NewIterator(uint32_t readahead_pages = 0) const {
    return Iterator(this, readahead_pages);
  }

  /// Descends to the leaf that may contain key; returns the loaded page and
  /// its page number. Shared by Get and the stateful cursor.
  Status FindLeaf(const Slice& key, BtreePage* page, uint32_t* page_no) const;

  Status ReadPage(uint32_t page_no, BtreePage* out,
                  uint32_t readahead = 0) const;

 private:
  Env* const env_;
  const BtreeMeta meta_;
};

}  // namespace auxlsm
