// Bulk loader for immutable disk B+-trees (LSM flush/merge output).
//
// Entries must be added in non-decreasing key order. Leaf pages are written
// first and contiguously (so range scans and batched lookups read the file
// sequentially), then each internal level, with the root page last.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "btree/btree_page.h"
#include "common/status.h"
#include "env/env.h"

namespace auxlsm {

/// Metadata describing a finished tree; kept in the in-memory component
/// catalog (components are immutable, so this never changes after build).
struct BtreeMeta {
  uint32_t file_id = 0;
  uint32_t root_page = 0;
  uint32_t num_pages = 0;
  uint32_t first_leaf_page = 0;  // always 0: leaves are written first
  uint32_t num_leaf_pages = 0;
  uint64_t num_entries = 0;
  uint8_t height = 1;
  std::string min_key;
  std::string max_key;
  uint64_t data_bytes = 0;  ///< sum of key+value sizes
};

class BtreeBuilder {
 public:
  /// Creates a builder writing into a fresh file of env.
  explicit BtreeBuilder(Env* env);
  /// A builder destroyed before a successful Finish (a failed, retried or
  /// abandoned build) deletes its file, so the partial pages leave neither
  /// the PageStore nor the buffer cache behind.
  ~BtreeBuilder();
  BtreeBuilder(const BtreeBuilder&) = delete;
  BtreeBuilder& operator=(const BtreeBuilder&) = delete;

  /// Adds the next entry; keys must be non-decreasing.
  Status Add(const Slice& key, const Slice& value, uint64_t ts,
             bool antimatter);

  /// Flushes remaining pages and internal levels; fills *meta.
  Status Finish(BtreeMeta* meta);

  uint64_t num_entries() const { return num_entries_; }
  uint64_t data_bytes() const { return data_bytes_; }

 private:
  Status FlushLeaf();

  Env* const env_;
  const size_t page_size_;
  uint32_t file_id_;
  BtreePageBuilder leaf_builder_;
  // (first key, page no) of each page in the level being collected.
  std::vector<std::pair<std::string, uint32_t>> level_entries_;
  std::string pending_first_key_;
  bool leaf_has_entries_ = false;
  uint64_t num_entries_ = 0;
  uint64_t data_bytes_ = 0;
  std::string min_key_, max_key_;
  bool finished_ = false;  ///< Finish succeeded: the file belongs to *meta
};

}  // namespace auxlsm
