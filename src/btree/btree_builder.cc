#include "btree/btree_builder.h"

#include <cassert>

namespace auxlsm {

BtreeBuilder::BtreeBuilder(Env* env)
    : env_(env),
      page_size_(env->page_size()),
      file_id_(env->CreateFile()),
      leaf_builder_(0, page_size_) {}

BtreeBuilder::~BtreeBuilder() {
  if (!finished_) env_->DeleteFile(file_id_);
}

Status BtreeBuilder::Add(const Slice& key, const Slice& value, uint64_t ts,
                         bool antimatter) {
  assert(!finished_);
  if (num_entries_ == 0) {
    min_key_ = key.ToString();
  } else if (key.compare(Slice(max_key_)) < 0) {
    return Status::InvalidArgument("keys added out of order");
  }
  if (!leaf_has_entries_) {
    pending_first_key_ = key.ToString();
    leaf_builder_.set_first_ordinal(static_cast<uint32_t>(num_entries_));
  }
  if (!leaf_builder_.AddLeafEntry(key, value, ts, antimatter)) {
    AUXLSM_RETURN_NOT_OK(FlushLeaf());
    pending_first_key_ = key.ToString();
    leaf_builder_.set_first_ordinal(static_cast<uint32_t>(num_entries_));
    if (!leaf_builder_.AddLeafEntry(key, value, ts, antimatter)) {
      return Status::InvalidArgument("entry larger than page");
    }
  }
  leaf_has_entries_ = true;
  num_entries_++;
  data_bytes_ += key.size() + value.size();
  max_key_ = key.ToString();
  return Status::OK();
}

Status BtreeBuilder::FlushLeaf() {
  if (!leaf_has_entries_) return Status::OK();
  uint32_t page_no = 0;
  AUXLSM_RETURN_NOT_OK(
      env_->AppendPage(file_id_, leaf_builder_.Finish(), &page_no));
  level_entries_.emplace_back(pending_first_key_, page_no);
  leaf_has_entries_ = false;
  return Status::OK();
}

Status BtreeBuilder::Finish(BtreeMeta* meta) {
  assert(!finished_);

  if (num_entries_ == 0) {
    // Emit a single empty leaf as the root so readers have a valid page.
    uint32_t page_no = 0;
    AUXLSM_RETURN_NOT_OK(
        env_->AppendPage(file_id_, leaf_builder_.Finish(), &page_no));
    meta->file_id = file_id_;
    meta->root_page = page_no;
    meta->num_pages = 1;
    meta->num_leaf_pages = 1;
    meta->num_entries = 0;
    meta->height = 1;
    finished_ = true;
    return Status::OK();
  }

  AUXLSM_RETURN_NOT_OK(FlushLeaf());
  const uint32_t num_leaf_pages = static_cast<uint32_t>(level_entries_.size());

  uint8_t height = 1;
  // Build internal levels until a single page remains.
  while (level_entries_.size() > 1) {
    height++;
    std::vector<std::pair<std::string, uint32_t>> next_level;
    BtreePageBuilder internal(height - 1, page_size_);
    std::string page_first_key;
    auto flush_internal = [&]() -> Status {
      uint32_t page_no = 0;
      AUXLSM_RETURN_NOT_OK(
          env_->AppendPage(file_id_, internal.Finish(), &page_no));
      next_level.emplace_back(page_first_key, page_no);
      return Status::OK();
    };
    for (const auto& [first_key, child] : level_entries_) {
      if (internal.empty()) page_first_key = first_key;
      if (!internal.AddInternalEntry(first_key, child)) {
        AUXLSM_RETURN_NOT_OK(flush_internal());
        page_first_key = first_key;
        if (!internal.AddInternalEntry(first_key, child)) {
          return Status::InvalidArgument("separator larger than page");
        }
      }
    }
    if (!internal.empty()) {
      AUXLSM_RETURN_NOT_OK(flush_internal());
    }
    level_entries_ = std::move(next_level);
  }

  meta->file_id = file_id_;
  meta->root_page = level_entries_[0].second;
  meta->num_pages = env_->store()->NumPages(file_id_);
  meta->first_leaf_page = 0;
  meta->num_leaf_pages = num_leaf_pages;
  meta->num_entries = num_entries_;
  meta->height = height;
  meta->min_key = min_key_;
  meta->max_key = max_key_;
  meta->data_bytes = data_bytes_;
  finished_ = true;
  return Status::OK();
}

}  // namespace auxlsm
