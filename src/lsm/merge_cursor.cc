#include "lsm/merge_cursor.h"

namespace auxlsm {

MergeCursor::MergeCursor(std::vector<DiskComponentPtr> newest_first,
                         Options options)
    : components_(std::move(newest_first)), options_(std::move(options)) {}

bool MergeCursor::EntryVisible(size_t i) const {
  if (!options_.respect_bitmaps) return true;
  const Bitmap* bm = nullptr;
  if (i < options_.bitmap_overrides.size() &&
      options_.bitmap_overrides[i] != nullptr) {
    bm = options_.bitmap_overrides[i].get();
  } else {
    bm = components_[i]->bitmap().get();
  }
  if (bm == nullptr) return true;
  return !bm->Test(iters_[i].ordinal());
}

Status MergeCursor::Init() {
  iters_.clear();
  iters_.reserve(components_.size());
  for (const auto& c : components_) {
    iters_.push_back(c->tree().NewIterator(options_.readahead_pages));
    if (options_.lower_bound.empty()) {
      AUXLSM_RETURN_NOT_OK(iters_.back().SeekToFirst());
    } else {
      AUXLSM_RETURN_NOT_OK(iters_.back().Seek(options_.lower_bound));
    }
  }
  return FindNext();
}

Status MergeCursor::Next() { return FindNext(); }

Status MergeCursor::FindNext() {
  while (true) {
    // Pick the smallest key; ties go to the newest component (lowest index).
    int winner = -1;
    for (size_t i = 0; i < iters_.size(); i++) {
      if (!iters_[i].Valid()) continue;
      if (winner < 0 || iters_[i].key().compare(iters_[winner].key()) < 0) {
        winner = static_cast<int>(i);
      }
    }
    if (winner < 0) {
      valid_ = false;
      return Status::OK();
    }
    if (!options_.upper_bound.empty() &&
        iters_[winner].key().compare(Slice(options_.upper_bound)) > 0) {
      valid_ = false;
      return Status::OK();
    }
    const Slice win_key = iters_[winner].key();
    const bool visible = EntryVisible(winner);
    cur_key_ = win_key.ToString();
    cur_value_ = iters_[winner].value().ToString();
    cur_ts_ = iters_[winner].ts();
    cur_antimatter_ = iters_[winner].antimatter();
    cur_source_ = static_cast<size_t>(winner);
    cur_ordinal_ = iters_[winner].ordinal();
    // Consume the winning key from every component (older duplicates are
    // overridden and dropped).
    for (size_t i = 0; i < iters_.size(); i++) {
      while (iters_[i].Valid() && iters_[i].key() == Slice(cur_key_)) {
        AUXLSM_RETURN_NOT_OK(iters_[i].Next());
      }
    }
    if (!visible) continue;
    if (cur_antimatter_ && options_.drop_antimatter) continue;
    valid_ = true;
    return Status::OK();
  }
}

}  // namespace auxlsm
