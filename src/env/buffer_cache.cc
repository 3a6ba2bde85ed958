#include "env/buffer_cache.h"

#include <algorithm>

#include "fault/fault_injector.h"

namespace auxlsm {

namespace {

inline uint64_t PageHash(uint32_t file_id, uint32_t page_no) {
  return (uint64_t{file_id} << 32 | page_no) * 0x9e3779b97f4a7c15ULL;
}

}  // namespace

BufferCache::BufferCache(PageStore* store, IoEngine* io,
                         size_t capacity_pages, size_t shards)
    : store_(store), io_(io), capacity_(capacity_pages) {
  shards = std::max<size_t>(1, shards);
  // More shards than pages would leave zero-capacity stripes whose pages
  // could never be cached; clamp so every shard holds at least one page.
  if (capacity_pages > 0) shards = std::min(shards, capacity_pages);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; i++) {
    shards_.push_back(std::make_unique<Shard>());
  }
  set_capacity(capacity_pages);
}

BufferCache::Shard& BufferCache::ShardOf(uint32_t file_id, uint32_t page_no) {
  if (shards_.size() == 1) return *shards_[0];
  // Top bits of the multiplicative hash spread consecutive pages of one file
  // across shards.
  return *shards_[(PageHash(file_id, page_no) >> 32) % shards_.size()];
}

bool BufferCache::LookupLocked(Shard& s, const Key& k, PageData* out) {
  auto fit = s.files.find(k.file_id);
  if (fit == s.files.end()) return false;
  auto pit = fit->second.find(k.page_no);
  if (pit == fit->second.end()) return false;
  s.lru.splice(s.lru.begin(), s.lru, pit->second);
  *out = pit->second->data;
  return true;
}

void BufferCache::EvictOverflowLocked(Shard& s) {
  while (s.size > s.capacity && !s.lru.empty()) {
    const Key& victim = s.lru.back().key;
    auto fit = s.files.find(victim.file_id);
    if (fit != s.files.end()) {
      fit->second.erase(victim.page_no);
      if (fit->second.empty()) s.files.erase(fit);
    }
    s.lru.pop_back();
    s.size--;
    s.evictions++;
  }
}

void BufferCache::InsertLocked(Shard& s, const Key& k, PageData data) {
  auto fit = s.files.find(k.file_id);
  if (fit != s.files.end()) {
    auto pit = fit->second.find(k.page_no);
    if (pit != fit->second.end()) {
      pit->second->data = std::move(data);
      s.lru.splice(s.lru.begin(), s.lru, pit->second);
      return;
    }
  }
  s.lru.push_front(Entry{k, std::move(data)});
  s.files[k.file_id][k.page_no] = s.lru.begin();
  s.size++;
  EvictOverflowLocked(s);
}

Status BufferCache::Read(uint32_t file_id, uint32_t page_no, PageData* out,
                         uint32_t readahead_pages) {
  const Key k{file_id, page_no};
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  if (cap == 0) {
    if (fault_ != nullptr) {
      AUXLSM_RETURN_NOT_OK(fault_->Hit(failpoints::kCacheMissFill, io_));
    }
    io_->OnCacheMiss();
    AUXLSM_RETURN_NOT_OK(store_->ReadPage(file_id, page_no, out));
    io_->ChargeRead(file_id, page_no);
    return Status::OK();
  }
  {
    // The shard lock is held across the miss fault, so two threads missing
    // the same page serialize and only one charges the IoEngine (a page
    // always hashes to one shard). PageStore and IoEngine never take cache
    // locks, so no cycle.
    Shard& s = ShardOf(file_id, page_no);
    MutexLock l(s.mu);
    if (LookupLocked(s, k, out)) {
      s.hits++;
      io_->OnCacheHit();
      return Status::OK();
    }
    if (fault_ != nullptr) {
      AUXLSM_RETURN_NOT_OK(fault_->Hit(failpoints::kCacheMissFill, io_));
    }
    s.misses++;
    io_->OnCacheMiss();
    AUXLSM_RETURN_NOT_OK(store_->ReadPage(file_id, page_no, out));
    io_->ChargeRead(file_id, page_no);
    InsertLocked(s, k, *out);
  }
  // Read-ahead: fault in following pages at sequential cost. Point lookups
  // ask for none, so they skip the store's page-count lookup.
  if (readahead_pages == 0) return Status::OK();
  const uint32_t n_pages = store_->NumPages(file_id);
  for (uint32_t i = 1; i <= readahead_pages && page_no + i < n_pages; i++) {
    const Key rk{file_id, page_no + i};
    Shard& s = ShardOf(rk.file_id, rk.page_no);
    PageData tmp;
    MutexLock l(s.mu);
    if (LookupLocked(s, rk, &tmp)) continue;
    if (!store_->ReadPage(rk.file_id, rk.page_no, &tmp).ok()) break;
    io_->ChargeRead(rk.file_id, rk.page_no);
    InsertLocked(s, rk, std::move(tmp));
  }
  return Status::OK();
}

void BufferCache::Admit(uint32_t file_id, uint32_t page_no, PageData data) {
  if (capacity_.load(std::memory_order_relaxed) == 0) return;
  Shard& s = ShardOf(file_id, page_no);
  MutexLock l(s.mu);
  InsertLocked(s, Key{file_id, page_no}, std::move(data));
}

void BufferCache::Evict(uint32_t file_id) {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock l(s.mu);
    auto fit = s.files.find(file_id);
    if (fit == s.files.end()) continue;
    for (auto& [page_no, it] : fit->second) {
      s.lru.erase(it);
      s.size--;
    }
    s.files.erase(fit);
  }
}

void BufferCache::Clear() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock l(s.mu);
    s.lru.clear();
    s.files.clear();
    s.size = 0;
  }
}

size_t BufferCache::size() const {
  size_t total = 0;
  for (const auto& sp : shards_) {
    MutexLock l(sp->mu);
    total += sp->size;
  }
  return total;
}

void BufferCache::set_capacity(size_t capacity_pages) {
  capacity_.store(capacity_pages, std::memory_order_relaxed);
  const size_t n = shards_.size();
  for (size_t i = 0; i < n; i++) {
    Shard& s = *shards_[i];
    MutexLock l(s.mu);
    // First (capacity % n) shards take the remainder page each. Shrinking a
    // sharded cache below its shard count floors every shard at one page —
    // a zero-capacity stripe could never cache its pages — so the effective
    // capacity is max(capacity, shards) in that degenerate case.
    s.capacity = capacity_pages / n + (i < capacity_pages % n ? 1 : 0);
    if (capacity_pages > 0 && s.capacity == 0) s.capacity = 1;
    EvictOverflowLocked(s);
  }
}

BufferCacheStats BufferCache::stats() const {
  BufferCacheStats total;
  for (const auto& sp : shards_) {
    MutexLock l(sp->mu);
    total.hits += sp->hits;
    total.misses += sp->misses;
    total.evictions += sp->evictions;
  }
  return total;
}

}  // namespace auxlsm
