// In-memory page-file store backing LSM disk components.
//
// A "file" is an append-only sequence of fixed-size pages, created by a flush
// or merge via an appending writer and immutable afterwards (matching LSM
// disk-component semantics). Page data is reference-counted so readers keep
// pages alive across concurrent file deletion.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace auxlsm {

using PageData = std::shared_ptr<const std::string>;

class PageStore {
 public:
  explicit PageStore(size_t page_size) : page_size_(page_size) {}

  size_t page_size() const { return page_size_; }

  /// Creates a new empty file and returns its id.
  uint32_t CreateFile();

  /// Appends a page (must be exactly page_size bytes) and returns its number
  /// and, if `stored` is non-null, the page data as stored (so a caller can
  /// cache it without a second lookup).
  Status AppendPage(uint32_t file_id, std::string page, uint32_t* page_no,
                    PageData* stored = nullptr);

  /// Reads one page.
  Status ReadPage(uint32_t file_id, uint32_t page_no, PageData* out) const;

  /// Number of pages in a file, or 0 if absent.
  uint32_t NumPages(uint32_t file_id) const;

  /// Drops a file; in-flight readers holding PageData remain valid.
  Status DeleteFile(uint32_t file_id);

  bool FileExists(uint32_t file_id) const;

  /// Total pages across all live files.
  uint64_t TotalPages() const;

 private:
  const size_t page_size_;
  // Miss fills fault pages in while holding a BufferCache shard mutex, so
  // the store ranks between the shards and the disk model.
  mutable SharedMutex mu_{lockrank::kPageStore, "env.page_store"};
  uint32_t next_file_id_ GUARDED_BY(mu_) = 1;
  std::unordered_map<uint32_t, std::vector<PageData>> files_ GUARDED_BY(mu_);
};

}  // namespace auxlsm
