#include "btree/btree.h"

namespace auxlsm {

Status Btree::ReadPage(uint32_t page_no, BtreePage* out,
                       uint32_t readahead) const {
  PageData data;
  AUXLSM_RETURN_NOT_OK(
      env_->ReadPage(meta_.file_id, page_no, &data, readahead));
  *out = BtreePage(std::move(data), env_->page_size());
  return Status::OK();
}

Status Btree::FindLeaf(const Slice& key, BtreePage* page,
                       uint32_t* page_no) const {
  uint32_t current = meta_.root_page;
  BtreePage p;
  AUXLSM_RETURN_NOT_OK(ReadPage(current, &p));
  while (!p.is_leaf()) {
    int slot = p.UpperSlot(key);
    if (slot < 0) slot = 0;  // key below subtree min: leftmost child
    current = p.ChildAt(slot);
    AUXLSM_RETURN_NOT_OK(ReadPage(current, &p));
  }
  *page = std::move(p);
  *page_no = current;
  return Status::OK();
}

Status Btree::Get(const Slice& key, LeafEntry* entry,
                  std::string* backing) const {
  uint64_t ordinal;
  return GetWithOrdinal(key, entry, backing, &ordinal);
}

Status Btree::GetWithOrdinal(const Slice& key, LeafEntry* entry,
                             std::string* backing, uint64_t* ordinal) const {
  if (meta_.num_entries == 0) return Status::NotFound();
  BtreePage page;
  uint32_t page_no;
  AUXLSM_RETURN_NOT_OK(FindLeaf(key, &page, &page_no));
  const int slot = page.LowerBound(key);
  if (slot >= page.count() || page.KeyAt(slot) != key) {
    return Status::NotFound();
  }
  LeafEntry e;
  AUXLSM_RETURN_NOT_OK(page.LeafEntryAt(slot, &e));
  // Copy out: the page buffer is shared and may be evicted; callers keep the
  // backing string alive as long as they use the entry.
  backing->assign(e.key.data(), e.key.size());
  const size_t klen = e.key.size();
  backing->append(e.value.data(), e.value.size());
  entry->key = Slice(backing->data(), klen);
  entry->value = Slice(backing->data() + klen, e.value.size());
  entry->ts = e.ts;
  entry->antimatter = e.antimatter;
  *ordinal = uint64_t{page.first_ordinal()} + static_cast<uint64_t>(slot);
  return Status::OK();
}

Status Btree::Iterator::LoadLeaf(uint32_t page_no) {
  AUXLSM_RETURN_NOT_OK(tree_->ReadPage(page_no, &page_, readahead_));
  leaf_page_ = page_no;
  return Status::OK();
}

Status Btree::Iterator::DecodeCurrent() {
  return page_.LeafEntryAt(slot_, &entry_);
}

Status Btree::Iterator::SeekToFirst() {
  valid_ = false;
  if (tree_->meta().num_entries == 0) return Status::OK();
  AUXLSM_RETURN_NOT_OK(LoadLeaf(tree_->meta().first_leaf_page));
  slot_ = 0;
  // Leaves are contiguous and non-empty for non-empty trees.
  valid_ = page_.count() > 0;
  if (valid_) AUXLSM_RETURN_NOT_OK(DecodeCurrent());
  return Status::OK();
}

Status Btree::Iterator::Seek(const Slice& target) {
  valid_ = false;
  if (tree_->meta().num_entries == 0) return Status::OK();
  if (target.compare(Slice(tree_->meta().max_key)) > 0) return Status::OK();
  BtreePage page;
  uint32_t page_no;
  AUXLSM_RETURN_NOT_OK(tree_->FindLeaf(target, &page, &page_no));
  page_ = std::move(page);
  leaf_page_ = page_no;
  slot_ = page_.LowerBound(target);
  if (slot_ >= page_.count()) {
    // Target falls past the leaf's last key: advance to the next leaf.
    const auto& m = tree_->meta();
    const uint32_t last_leaf = m.first_leaf_page + m.num_leaf_pages - 1;
    if (leaf_page_ >= last_leaf) return Status::OK();
    AUXLSM_RETURN_NOT_OK(LoadLeaf(leaf_page_ + 1));
    slot_ = 0;
    if (page_.count() == 0) return Status::OK();
  }
  valid_ = true;
  return DecodeCurrent();
}

Status Btree::Iterator::Next() {
  slot_++;
  if (slot_ >= page_.count()) {
    const auto& m = tree_->meta();
    const uint32_t last_leaf = m.first_leaf_page + m.num_leaf_pages - 1;
    if (leaf_page_ >= last_leaf) {
      valid_ = false;
      return Status::OK();
    }
    AUXLSM_RETURN_NOT_OK(LoadLeaf(leaf_page_ + 1));
    slot_ = 0;
    if (page_.count() == 0) {
      valid_ = false;
      return Status::OK();
    }
  }
  return DecodeCurrent();
}

uint64_t Btree::Iterator::ordinal() const {
  return uint64_t{page_.first_ordinal()} + static_cast<uint64_t>(slot_);
}

}  // namespace auxlsm
