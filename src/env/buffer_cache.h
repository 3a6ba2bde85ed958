// Lock-striped LRU buffer cache over (file, page) with optional read-ahead.
//
// The cache is write-through and read-through. Every page a component build
// appends is admitted at the MRU end as it is written (Admit, called by
// Env::AppendPage), so a freshly flushed or merged component starts warm:
// without it, every flush produced a cold component and every merge evicted
// the cached copy of exactly the data it rewrote, and the reads right after
// (Eager's ingest-time point lookups above all) re-faulted pages just
// written. A miss faults the page in from the PageStore and charges the
// IoEngine (on the faulting thread's device queue); read-ahead faults in the
// following pages of the same file at sequential-transfer cost, modelling
// OS/disk read-ahead the paper relies on for scans (4MB read-ahead in §6.1).
//
// Concurrency: the cache is split into `shards` independent stripes, each
// with its own mutex, LRU list, and page index, selected by a hash of
// (file_id, page_no). Parallel maintenance (concurrent flushes/merges) and
// lookups therefore contend per-stripe instead of on one global mutex.
// shards == 1 reproduces the single-LRU behavior exactly (one global
// eviction order), which keeps the simulated I/O costs of serial runs
// bit-for-bit comparable with the original implementation.
//
// Each shard additionally keeps a per-file index of its resident pages, so
// Evict(file_id) — called when a retired component's file is deleted — costs
// O(resident pages of that file), not O(cache size).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "env/page_store.h"
#include "io/io_engine.h"

namespace auxlsm {

class FaultInjector;

/// Aggregated cache counters (summed over shards).
struct BufferCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

class BufferCache {
 public:
  /// capacity_pages == 0 disables caching entirely. `shards` stripes the
  /// cache; the capacity is divided evenly across shards.
  BufferCache(PageStore* store, IoEngine* io, size_t capacity_pages,
              size_t shards = 1);

  /// Reads a page through the cache. readahead_pages > 0 additionally faults
  /// in up to that many following pages of the same file on a miss.
  Status Read(uint32_t file_id, uint32_t page_no, PageData* out,
              uint32_t readahead_pages = 0);

  /// Write-through admission of a page just appended: inserts it at the MRU
  /// end, evicting LRU pages past capacity. Charges no read and leaves the
  /// hit/miss counters alone; a no-op when the cache is disabled.
  void Admit(uint32_t file_id, uint32_t page_no, PageData data);

  /// Drops all cached pages of a file (called when a component is deleted).
  void Evict(uint32_t file_id);

  /// Drops everything (used by benchmarks to model a cold cache).
  void Clear();

  size_t size() const;
  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  size_t shards() const { return shards_.size(); }
  void set_capacity(size_t capacity_pages);

  BufferCacheStats stats() const;

  /// Failpoint hook for miss fills (fault/fault_injector.h); the Env wires
  /// this when EnvOptions::fault_injector is set. Null = no-op branch.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

 private:
  struct Key {
    uint32_t file_id;
    uint32_t page_no;
  };
  struct Entry {
    Key key;
    PageData data;
  };
  using LruList = std::list<Entry>;
  /// page_no -> LRU position, per file: lookup is two hash probes, and
  /// deleting a file touches only its own resident pages.
  using FilePages = std::unordered_map<uint32_t, LruList::iterator>;

  struct Shard {
    // Held across miss faults into the PageStore and DiskModel charges,
    // hence ranked above both (kCacheShard < kPageStore < kDiskModel).
    mutable Mutex mu{lockrank::kCacheShard, "env.cache_shard"};
    size_t capacity GUARDED_BY(mu) = 0;
    size_t size GUARDED_BY(mu) = 0;
    LruList lru GUARDED_BY(mu);  // front = most recent
    std::unordered_map<uint32_t, FilePages> files GUARDED_BY(mu);
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
  };

  Shard& ShardOf(uint32_t file_id, uint32_t page_no);
  // The following helpers run with the shard's mutex held.
  bool LookupLocked(Shard& s, const Key& k, PageData* out) REQUIRES(s.mu);
  void InsertLocked(Shard& s, const Key& k, PageData data) REQUIRES(s.mu);
  void EvictOverflowLocked(Shard& s) REQUIRES(s.mu);

  PageStore* const store_;
  IoEngine* const io_;
  FaultInjector* fault_ = nullptr;
  std::atomic<size_t> capacity_;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace auxlsm
