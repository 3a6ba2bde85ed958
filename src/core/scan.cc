// Primary-index scans as a streaming executor: full scans (the Fig 12b
// baseline) and range-filter scans (§6.4.2) with strategy-dependent
// component pruning, pulled one entry at a time so a Limit stops reading
// pages as soon as enough rows matched. The legacy one-shot entry points
// drain an unlimited count-only cursor, visiting entries in exactly the
// pre-cursor order — ScanResult counters are bit-identical.
#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "cache/tuple_cache.h"
#include "core/dataset.h"
#include "format/key_codec.h"

namespace auxlsm {

// ---------------------------------------------------------------------------
// FilterScanExecutor (a Dataset friend; see dataset.h)
// ---------------------------------------------------------------------------

class FilterScanExecutor final : public QueryExecutor {
 public:
  FilterScanExecutor(Dataset* dataset, const ReadQuery& query)
      : dataset_(dataset), query_(query) {}

  Status Open() override {
    readahead_ = query_.read_options().readahead_pages;
    if (readahead_ == 0) readahead_ = dataset_->options_.scan_readahead_pages;
    const auto strategy = dataset_->options_.strategy;
    LsmTree* primary = dataset_->primary_.get();

    // Tuple-cache consult (PR 7): an unlimited user-range scan produces
    // exactly the records whose current user_id falls in [lo, hi], in
    // primary-key order — the same result the "user_id" secondary query
    // caches — so the two plans share that index's space. Only complete
    // chains are served: the scan streams pages out incrementally, so a
    // key-major cached prefix could not be merged back into pk order
    // before delivery (unlike the buffering secondary executor).
    if (TupleCache* cache = dataset_->tuple_cache();
        cache != nullptr && query_.has_range() && !query_.has_time_range() &&
        !query_.count_only() && query_.limit() == 0) {
      for (size_t i = 0; i < dataset_->secondaries_.size(); i++) {
        const auto& def = dataset_->secondaries_[i]->def;
        if (def.name == "user_id" && def.sk_width == sizeof(uint64_t)) {
          cache_ = cache;
          space_ = Dataset::TupleCacheSpaceOf(i);
          break;
        }
      }
    }
    if (cache_ != nullptr) {
      // Epoch before any snapshot capture: a racing write invalidates after
      // its effects are visible, so an unchanged epoch at populate time
      // proves the scan observed the write (or the insert is dropped).
      epoch_ = cache_->SpaceEpoch(space_);
      TupleCache::RangeServe serve;
      cache_->LookupRange(space_, query_.range_lo(), query_.range_hi(),
                          &serve);
      if (serve.complete) {
        // Full serve: no snapshot, no merge cursor, no modeled I/O. Cached
        // tuples are key-major; the scan's order is global pk-ascending.
        cache_hits_ = 1;
        cache_rows_ = serve.tuples.size();
        served_.reserve(serve.tuples.size());
        for (const auto& t : serve.tuples) {
          TweetRecord rec;
          AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(t.value, &rec));
          served_.push_back(std::move(rec));
        }
        std::sort(served_.begin(), served_.end(),
                  [](const TweetRecord& a, const TweetRecord& b) {
                    return a.id < b.id;
                  });
        full_serve_ = true;
        return Status::OK();
      }
      cache_misses_ = 1;
      collect_ = true;  // populate from the completed scan below
    }

    // A pure time-range query scans with range-filter pruning; any user_id
    // predicate forces the full primary scan (filters only cover time).
    const bool prune_mode = query_.has_time_range() && !query_.has_range();

    if (!prune_mode) {
      mem_ = primary->MemSnapshot();  // before Components()
      selected_ = primary->Components();
      components_scanned_ = selected_.size();
      include_memtable_ = true;
      return InitCursor();
    }

    // Memtable state before the component snapshot (flush-race ordering).
    // Covers active and sealed memory components.
    const bool mem_overlaps =
        primary->MemOverlaps(query_.time_lo(), query_.time_hi());
    mem_ = primary->MemSnapshot();

    auto comps = primary->Components();
    auto overlaps = [&](const DiskComponentPtr& c) {
      const auto& f = c->range_filter();
      // A component without a filter can never be pruned.
      if (!f.has_value()) return true;
      return f->Overlaps(query_.time_lo(), query_.time_hi());
    };

    if (strategy == MaintenanceStrategy::kMutableBitmap) {
      // §5: bitmaps make disk entries self-describing, so components are
      // scanned one by one with independent pruning and no reconciliation.
      // The memtable snapshot was taken before the component snapshot, so a
      // concurrently flushed entry can appear in both (flushes build
      // off-latch while readers run); the newer timestamp wins in either
      // direction.
      per_component_ = true;
      comps_ = std::move(comps);
      overlaps_ = overlaps;
      include_memtable_ = mem_overlaps;
      if (mem_overlaps) {
        for (const auto& e : mem_) mem_ts_[e.key] = e.ts;
      }
      return Status::OK();
    }

    // Candidate components by filter overlap.
    std::vector<bool> candidate(comps.size());
    int oldest_candidate = -1;
    for (size_t i = 0; i < comps.size(); i++) {
      candidate[i] = overlaps(comps[i]);
      if (candidate[i]) oldest_candidate = static_cast<int>(i);
    }

    include_memtable_ = mem_overlaps;
    if (strategy == MaintenanceStrategy::kValidation ||
        strategy == MaintenanceStrategy::kDeletedKeyBtree) {
      // §4.2: filters only reflect new records, so a query touching an
      // older component must read every newer component (and the memtable)
      // to see overriding updates.
      if (oldest_candidate >= 0) {
        include_memtable_ = true;
        for (int i = 0; i <= oldest_candidate; i++) {
          selected_.push_back(comps[i]);
        }
      }
    } else {
      // Eager: filters were widened with old-record values, so components
      // prune independently.
      for (size_t i = 0; i < comps.size(); i++) {
        if (candidate[i]) selected_.push_back(comps[i]);
      }
    }
    components_scanned_ = selected_.size();
    components_pruned_ = comps.size() - selected_.size();
    return InitCursor();
  }

  Status Produce(size_t max_rows, QueryPage* page, bool* done) override {
    if (full_serve_) {
      size_t emitted = 0;
      while (emitted < max_rows && served_pos_ < served_.size()) {
        records_matched_++;
        page->records.push_back(std::move(served_[served_pos_++]));
        emitted++;
      }
      if (served_pos_ >= served_.size()) done_ = true;
      *done = done_;
      return Status::OK();
    }
    const uint64_t match_budget =
        query_.limit() == 0 ? UINT64_MAX : query_.limit();
    size_t emitted = 0;
    while (!done_) {
      if (query_.count_only()) {
        // No rows to deliver: run to exhaustion (or to the match Limit) in
        // this single pull.
        if (records_matched_ >= match_budget) break;
      } else if (emitted >= max_rows) {
        break;
      }
      bool produced = false;
      AUXLSM_RETURN_NOT_OK(per_component_ ? StepPerComponent(page, &produced)
                                          : StepReconciling(page, &produced));
      if (produced) emitted++;
    }
    // An eligible (unlimited, row-producing) scan completes only by stream
    // exhaustion, so the full matched set was collected: admit it.
    if (done_ && collect_ && !populated_) PopulateCache();
    *done = done_ || records_matched_ >= match_budget;
    return Status::OK();
  }

  void AccumulateStats(CursorStats* out) const override {
    out->records_scanned = records_scanned_;
    out->records_matched = records_matched_;
    out->components_scanned = components_scanned_;
    out->components_pruned = components_pruned_;
    out->tuple_cache_hits = cache_hits_;
    out->tuple_cache_chain_rows = cache_rows_;
    out->tuple_cache_misses = cache_misses_;
  }

 private:
  Status InitCursor() {
    MergeCursor::Options mo;
    mo.readahead_pages = readahead_;
    mo.respect_bitmaps = true;
    cursor_ = std::make_unique<MergeCursor>(selected_, mo);
    return cursor_->Init();
  }

  /// Evaluates the query predicates against a serialized record.
  bool Matches(const Slice& value) const {
    if (query_.has_range()) {
      uint64_t uid = 0;
      if (!(ExtractUserId(value, &uid).ok() && uid >= query_.range_lo() &&
            uid <= query_.range_hi())) {
        return false;
      }
    }
    if (query_.has_time_range()) {
      uint64_t t = 0;
      if (!(ExtractCreationTime(value, &t).ok() && t >= query_.time_lo() &&
            t <= query_.time_hi())) {
        return false;
      }
    }
    return true;
  }

  /// Counts (and, for row-producing cursors, materializes) one live record.
  Status Visit(const Slice& value, QueryPage* page, bool* produced) {
    records_scanned_++;
    if (!Matches(value)) return Status::OK();
    records_matched_++;
    if (!query_.count_only()) {
      TweetRecord rec;
      AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(value, &rec));
      if (collect_) collected_.push_back(rec);
      page->records.push_back(std::move(rec));
      *produced = true;
    }
    return Status::OK();
  }

  /// Runs once when an eligible scan exhausts: admits the completed result
  /// of [range_lo, range_hi] into the shared user_id space, grouped by each
  /// record's current user_id (the key write-side invalidation cuts on).
  void PopulateCache() {
    populated_ = true;
    std::map<uint64_t, std::vector<CachedTuple>> grouped;
    for (const auto& rec : collected_) {
      // Defensive: a key outside the queried interval would poison the
      // chain's emptiness claims (unreachable — Matches() filtered on it).
      if (rec.user_id < query_.range_lo() || rec.user_id > query_.range_hi())
        return;
      grouped[rec.user_id].push_back(
          CachedTuple{EncodeU64(rec.id), rec.Serialize()});
    }
    std::vector<TupleCache::KeyGroup> groups;
    groups.reserve(grouped.size());
    for (auto& [key, tuples] : grouped) {
      groups.push_back(TupleCache::KeyGroup{key, std::move(tuples)});
    }
    cache_->InsertRange(space_, query_.range_lo(), query_.range_hi(),
                        std::move(groups), epoch_);
    collected_.clear();
  }

  /// One step of the reconciling merge over (selected components, memtable
  /// snapshot): duplicate keys resolve to the larger timestamp. Mirrors the
  /// legacy ReconcilingScan loop body.
  Status StepReconciling(QueryPage* page, bool* produced) {
    const auto& mem = include_memtable_ ? mem_ : kNoMem;
    if (!cursor_->Valid() && mi_ >= mem.size()) {
      done_ = true;
      return Status::OK();
    }
    int cmp;
    if (!cursor_->Valid()) {
      cmp = -1;
    } else if (mi_ >= mem.size()) {
      cmp = 1;
    } else {
      cmp = Slice(mem[mi_].key).compare(cursor_->key());
    }
    if (cmp < 0) {
      if (!mem[mi_].antimatter) {
        AUXLSM_RETURN_NOT_OK(Visit(mem[mi_].value, page, produced));
      }
      mi_++;
    } else if (cmp > 0) {
      if (!cursor_->antimatter()) {
        AUXLSM_RETURN_NOT_OK(Visit(cursor_->value(), page, produced));
      }
      AUXLSM_RETURN_NOT_OK(cursor_->Next());
    } else {
      if (mem[mi_].ts >= cursor_->ts()) {
        if (!mem[mi_].antimatter) {
          AUXLSM_RETURN_NOT_OK(Visit(mem[mi_].value, page, produced));
        }
      } else {
        if (!cursor_->antimatter()) {
          AUXLSM_RETURN_NOT_OK(Visit(cursor_->value(), page, produced));
        }
      }
      mi_++;
      AUXLSM_RETURN_NOT_OK(cursor_->Next());
    }
    return Status::OK();
  }

  /// One step of the Mutable-bitmap per-component scan: components in
  /// newest-first order (independent pruning), then the memtable snapshot.
  Status StepPerComponent(QueryPage* page, bool* produced) {
    while (true) {
      if (it_.has_value()) {
        if (it_->Valid()) {
          const DiskComponentPtr& c = comps_[ci_];
          bool visit = false;
          if (!it_->antimatter() && c->EntryValid(it_->ordinal())) {
            visit = true;
            if (!mem_ts_.empty()) {
              auto dup = mem_ts_.find(it_->key().ToString());
              if (dup != mem_ts_.end()) {
                if (dup->second >= it_->ts()) {
                  visit = false;  // mem copy newer: skip the disk copy
                } else {
                  superseded_.insert(dup->first);  // disk newer: skip mem
                }
              }
            }
          }
          Status st;
          if (visit) st = Visit(it_->value(), page, produced);
          AUXLSM_RETURN_NOT_OK(st);
          AUXLSM_RETURN_NOT_OK(it_->Next());
          if (*produced || visit) return Status::OK();
          continue;
        }
        it_.reset();
        ci_++;
      }
      if (ci_ < comps_.size()) {
        const DiskComponentPtr& c = comps_[ci_];
        if (!overlaps_(c)) {
          components_pruned_++;
          ci_++;
          continue;
        }
        components_scanned_++;
        it_.emplace(c->tree().NewIterator(readahead_));
        AUXLSM_RETURN_NOT_OK(it_->SeekToFirst());
        continue;
      }
      // Memtable phase.
      if (!include_memtable_ || mi_ >= mem_.size()) {
        done_ = true;
        return Status::OK();
      }
      const OwnedEntry& e = mem_[mi_++];
      if (!e.antimatter &&
          (superseded_.empty() || superseded_.count(e.key) == 0)) {
        return Visit(e.value, page, produced);
      }
    }
  }

  static const std::vector<OwnedEntry> kNoMem;

  Dataset* dataset_;
  ReadQuery query_;
  uint32_t readahead_ = 32;

  // Snapshot (captured at Open).
  std::vector<OwnedEntry> mem_;
  std::vector<DiskComponentPtr> selected_;  // reconciling mode
  std::vector<DiskComponentPtr> comps_;     // per-component mode
  std::function<bool(const DiskComponentPtr&)> overlaps_;
  bool include_memtable_ = false;
  bool per_component_ = false;

  // Iteration state.
  std::unique_ptr<MergeCursor> cursor_;
  size_t mi_ = 0;
  size_t ci_ = 0;
  std::optional<Btree::Iterator> it_;
  std::unordered_map<std::string, Timestamp> mem_ts_;
  std::unordered_set<std::string> superseded_;
  bool done_ = false;

  uint64_t records_scanned_ = 0;
  uint64_t records_matched_ = 0;
  uint64_t components_scanned_ = 0;
  uint64_t components_pruned_ = 0;

  // Tuple-cache state (PR 7); inert when cache_ is null.
  TupleCache* cache_ = nullptr;
  uint32_t space_ = 0;
  uint64_t epoch_ = 0;
  bool full_serve_ = false;
  bool collect_ = false;
  bool populated_ = false;
  std::vector<TweetRecord> served_;   ///< cache-served rows (pk order)
  size_t served_pos_ = 0;
  std::vector<TweetRecord> collected_;  ///< emitted rows awaiting populate
  uint64_t cache_hits_ = 0;
  uint64_t cache_rows_ = 0;
  uint64_t cache_misses_ = 0;
};

const std::vector<OwnedEntry> FilterScanExecutor::kNoMem;

std::unique_ptr<QueryExecutor> MakeFilterScanExecutor(Dataset* dataset,
                                                      const ReadQuery& query) {
  return std::make_unique<FilterScanExecutor>(dataset, query);
}

// --- Legacy wrappers --------------------------------------------------------

namespace {

Status FillScanResult(Dataset* ds, const ReadQuery& q, ScanResult* out) {
  AUXLSM_ASSIGN_OR_RETURN(auto cursor, ds->NewCursor(q));
  QueryPage page;
  while (!cursor->done()) {
    AUXLSM_RETURN_NOT_OK(cursor->Next(&page));
  }
  const CursorStats& s = cursor->stats();
  out->records_scanned = s.records_scanned;
  out->records_matched = s.records_matched;
  out->components_scanned = s.components_scanned;
  out->components_pruned = s.components_pruned;
  return Status::OK();
}

}  // namespace

Status Dataset::FullScanUserRange(uint64_t lo_user, uint64_t hi_user,
                                  ScanResult* out) {
  return FillScanResult(this, Query().Range(lo_user, hi_user).CountOnly(),
                        out);
}

Status Dataset::ScanTimeRange(uint64_t lo, uint64_t hi, ScanResult* out) {
  return FillScanResult(this, Query().TimeRange(lo, hi).CountOnly(), out);
}

}  // namespace auxlsm
