#include "lsm/lsm_tree.h"

#include <algorithm>
#include <cassert>

#include "btree/btree_builder.h"
#include "common/hash.h"

namespace auxlsm {

LsmTree::LsmTree(Env* env, LsmTreeOptions options)
    : env_(env),
      options_(std::move(options)),
      mem_(std::make_shared<Memtable>()) {
  if (options_.merge_policy == nullptr) {
    options_.merge_policy = std::make_shared<NoMergePolicy>();
  }
}

std::shared_ptr<Memtable> LsmTree::ActiveMem() const {
  MutexLock l(mem_mu_);
  return mem_;
}

void LsmTree::Put(const Slice& key, const Slice& value, Timestamp ts) {
  ActiveMem()->Put(key, value, ts, /*antimatter=*/false);
}

void LsmTree::PutAntimatter(const Slice& key, Timestamp ts) {
  ActiveMem()->Put(key, Slice(), ts, /*antimatter=*/true);
}

std::vector<std::shared_ptr<Memtable>> LsmTree::MemtableSet() const {
  MutexLock l(mem_mu_);
  std::vector<std::shared_ptr<Memtable>> out;
  out.reserve(1 + sealed_.size());
  out.push_back(mem_);
  for (auto it = sealed_.rbegin(); it != sealed_.rend(); ++it) {
    out.push_back(*it);
  }
  return out;
}

Status LsmTree::GetFromMem(const Slice& key, OwnedEntry* out,
                           bool* from_sealed) const {
  if (from_sealed != nullptr) *from_sealed = false;
  // Fast path: no sealed memtables (always true on the serial path) — skip
  // the set snapshot on the hot per-operation lookup.
  std::shared_ptr<Memtable> active;
  {
    MutexLock l(mem_mu_);
    if (sealed_.empty()) active = mem_;
  }
  if (active != nullptr) return active->Get(key, out);
  const auto mems = MemtableSet();  // active first, then sealed newest-first
  for (size_t i = 0; i < mems.size(); i++) {
    if (!mems[i]->Get(key, out).ok()) continue;
    if (from_sealed != nullptr) *from_sealed = i > 0;
    return Status::OK();
  }
  return Status::NotFound();
}

namespace {

/// Merges two ordered entry snapshots; on a duplicate key the entry with the
/// larger timestamp wins (ties prefer `newer`, matching the reconciliation
/// convention used by scans).
std::vector<OwnedEntry> MergeSnapshots(std::vector<OwnedEntry> newer,
                                       std::vector<OwnedEntry> older) {
  if (older.empty()) return newer;
  if (newer.empty()) return older;
  std::vector<OwnedEntry> out;
  out.reserve(newer.size() + older.size());
  size_t ni = 0, oi = 0;
  while (ni < newer.size() || oi < older.size()) {
    int cmp;
    if (ni >= newer.size()) {
      cmp = 1;
    } else if (oi >= older.size()) {
      cmp = -1;
    } else {
      cmp = Slice(newer[ni].key).compare(Slice(older[oi].key));
    }
    if (cmp < 0) {
      out.push_back(std::move(newer[ni++]));
    } else if (cmp > 0) {
      out.push_back(std::move(older[oi++]));
    } else {
      out.push_back(newer[ni].ts >= older[oi].ts ? std::move(newer[ni])
                                                 : std::move(older[oi]));
      ni++;
      oi++;
    }
  }
  return out;
}

}  // namespace

std::vector<OwnedEntry> LsmTree::MemSnapshot() const {
  auto mems = MemtableSet();
  std::vector<OwnedEntry> out = mems.front()->Snapshot();
  for (size_t i = 1; i < mems.size(); i++) {
    out = MergeSnapshots(std::move(out), mems[i]->Snapshot());
  }
  return out;
}

std::vector<OwnedEntry> LsmTree::MemSnapshotRange(const Slice& lo,
                                                  const Slice& hi) const {
  auto mems = MemtableSet();
  std::vector<OwnedEntry> out = mems.front()->SnapshotRange(lo, hi);
  for (size_t i = 1; i < mems.size(); i++) {
    out = MergeSnapshots(std::move(out), mems[i]->SnapshotRange(lo, hi));
  }
  return out;
}

size_t LsmTree::MemBytes() const {
  // Per-ingest-op budget input; byte counters are atomics, so summing under
  // mem_mu_ needs no set snapshot.
  MutexLock l(mem_mu_);
  size_t total = mem_->ApproximateMemory();
  for (const auto& m : sealed_) total += m->ApproximateMemory();
  return total;
}

Timestamp LsmTree::MemMinTs() const {
  MutexLock l(mem_mu_);
  Timestamp min = mem_->min_ts();
  for (const auto& m : sealed_) {
    const Timestamp t = m->min_ts();
    if (t != 0 && (min == 0 || t < min)) min = t;
  }
  return min;
}

bool LsmTree::MemOverlaps(uint64_t lo, uint64_t hi) const {
  for (const auto& m : MemtableSet()) {
    if (m->empty()) continue;
    if (!options_.maintain_range_filter || !m->range_filter()->has_value()) {
      return true;
    }
    if (m->range_filter()->Overlaps(lo, hi)) return true;
  }
  return false;
}

Status LsmTree::Get(const Slice& key, OwnedEntry* out,
                    const GetOptions& opts) const {
  LookupResult res;
  AUXLSM_RETURN_NOT_OK(GetRaw(key, &res, opts));
  if (!res.found || res.entry.antimatter) return Status::NotFound();
  *out = std::move(res.entry);
  return Status::OK();
}

Status LsmTree::GetRaw(const Slice& key, LookupResult* out,
                       const GetOptions& opts) const {
  out->found = false;
  if (opts.search_memtable) {
    OwnedEntry e;
    bool from_sealed = false;
    if (GetFromMem(key, &e, &from_sealed).ok()) {
      out->found = true;
      out->entry = std::move(e);
      out->from_memtable = true;
      out->from_sealed = from_sealed;
      out->component = nullptr;
      return Status::OK();
    }
  }
  const uint64_t h = Hash64(key);
  for (const auto& c : Components()) {
    if (!c->MayContain(h, opts.use_blocked_bloom)) continue;
    LeafEntry entry;
    std::string backing;
    uint64_t ordinal = 0;
    Status st = c->tree().GetWithOrdinal(key, &entry, &backing, &ordinal);
    if (st.IsNotFound()) continue;
    AUXLSM_RETURN_NOT_OK(st);
    if (!c->EntryValid(ordinal)) {
      // The newest physical entry is marked deleted; the key is gone.
      return Status::OK();
    }
    out->found = true;
    out->entry.key = entry.key.ToString();
    out->entry.value = entry.value.ToString();
    out->entry.ts = entry.ts;
    out->entry.antimatter = entry.antimatter;
    out->from_memtable = false;
    out->from_sealed = false;
    out->component = c;
    out->ordinal = ordinal;
    return Status::OK();
  }
  return Status::OK();
}

// Streams ascending entries into one disk component of a tree: the B+-tree,
// the Bloom filters and, when the tree keeps one, the range filter over the
// entries' filter keys. Destroyed before Finish, it releases its file.
class LsmTree::ComponentBuilder {
 public:
  explicit ComponentBuilder(const LsmTree* tree)
      : opts_(tree->options_), env_(tree->env_), btree_(tree->env_) {}

  Status Add(const Slice& key, const Slice& value, Timestamp ts,
             bool antimatter) {
    AUXLSM_RETURN_NOT_OK(btree_.Add(key, value, ts, antimatter));
    if (opts_.build_bloom || opts_.build_blocked_bloom) {
      hashes_.push_back(Hash64(key));
    }
    if (opts_.maintain_range_filter && opts_.filter_key_extractor &&
        !antimatter) {
      filter_.Expand(opts_.filter_key_extractor(key, value));
    }
    return Status::OK();
  }

  Result<DiskComponentPtr> Finish(ComponentId id) {
    BtreeMeta meta;
    AUXLSM_RETURN_NOT_OK(btree_.Finish(&meta));
    auto component = std::make_shared<DiskComponent>(id, env_, std::move(meta));
    if (opts_.build_bloom) {
      component->set_bloom(
          std::make_unique<BloomFilter>(hashes_, opts_.bloom_fpr));
    }
    if (opts_.build_blocked_bloom) {
      component->set_blocked_bloom(
          std::make_unique<BlockedBloomFilter>(hashes_, opts_.bloom_fpr));
    }
    if (opts_.maintain_range_filter) {
      component->set_range_filter(filter_);
    }
    if (opts_.attach_bitmap) {
      component->EnsureBitmap();
    }
    return component;
  }

 private:
  const LsmTreeOptions& opts_;
  Env* const env_;
  BtreeBuilder btree_;
  std::vector<uint64_t> hashes_;
  RangeFilter filter_;
};

std::shared_ptr<Memtable> LsmTree::SealMemtable() {
  MutexLock l(mem_mu_);
  if (mem_->empty()) return nullptr;
  std::shared_ptr<Memtable> sealed = mem_;
  sealed_.push_back(sealed);
  mem_ = std::make_shared<Memtable>();
  return sealed;
}

Result<DiskComponentPtr> LsmTree::BuildFromSealed(
    const std::shared_ptr<Memtable>& sealed) {
  ComponentBuilder builder(this);
  for (const OwnedEntry& e : sealed->Snapshot()) {
    AUXLSM_RETURN_NOT_OK(builder.Add(e.key, e.value, e.ts, e.antimatter));
  }
  AUXLSM_ASSIGN_OR_RETURN(
      DiskComponentPtr component,
      builder.Finish(ComponentId{sealed->min_ts(), sealed->max_ts()}));
  // The flushed component's range filter is the *memory component's* filter,
  // which strategies may have widened with old-record values (§3.1); the
  // entry-derived filter computed during the build can be too narrow.
  if (options_.maintain_range_filter && sealed->range_filter()->has_value()) {
    component->set_range_filter(*sealed->range_filter());
  }
  return component;
}

void LsmTree::InstallFlushed(const std::shared_ptr<Memtable>& sealed,
                             DiskComponentPtr component) {
  {
    MutexLock ml(mem_mu_);
    auto it = std::find(sealed_.begin(), sealed_.end(), sealed);
    if (it == sealed_.end()) {
      // The sealed memtable was already flushed by a competing path (e.g. an
      // explicit FlushAll racing the background cycle); drop the duplicate
      // build rather than installing the same entries twice.
      component->MarkRetired();
      return;
    }
    // Publish the component before dropping the sealed memtable: a reader
    // between the two steps sees the entry twice (reconciled by timestamp),
    // never zero times. Lock order mem_mu_ -> components_mu_ (no other path
    // nests them).
    {
      MutexLock cl(components_mu_);
      components_.insert(components_.begin(), component);
    }
    sealed_.erase(it);
  }
  if (install_hook_) install_hook_();
}

Status LsmTree::Flush() {
  SealMemtable();
  // Flush oldest-sealed first so the newest-first component order holds.
  std::vector<std::shared_ptr<Memtable>> pending;
  {
    MutexLock l(mem_mu_);
    pending = sealed_;
  }
  for (const auto& m : pending) {
    AUXLSM_ASSIGN_OR_RETURN(DiskComponentPtr component, BuildFromSealed(m));
    InstallFlushed(m, component);
  }
  return Status::OK();
}

std::vector<DiskComponentPtr> LsmTree::Components() const {
  MutexLock l(components_mu_);
  return components_;
}

bool LsmTree::PickMergeCandidates(
    std::vector<DiskComponentPtr>* picked) const {
  picked->clear();
  std::vector<DiskComponentPtr> snapshot = Components();
  std::vector<ComponentSizeInfo> sizes;
  sizes.reserve(snapshot.size());
  for (const auto& c : snapshot) {
    sizes.push_back(ComponentSizeInfo{c->size_bytes()});
  }
  const MergeRange range = options_.merge_policy->PickMerge(sizes);
  if (range.empty() || range.count() < 2) return false;
  picked->assign(snapshot.begin() + range.begin, snapshot.begin() + range.end);
  return true;
}

Status LsmTree::MergeAll() {
  std::vector<DiskComponentPtr> snapshot = Components();
  if (snapshot.size() < 2) return Status::OK();
  return MergeComponents(snapshot);
}

bool LsmTree::IsOldestComponent(const DiskComponentPtr& c) const {
  MutexLock l(components_mu_);
  return !components_.empty() && c == components_.back();
}

Status LsmTree::MergeComponents(const std::vector<DiskComponentPtr>& picked,
                                const MergeSteps& steps) {
  if (picked.empty()) return Status::OK();
  // Anti-matter may be dropped only if the merge reaches the oldest
  // component (no older component can hold a shadowed version). The
  // companion output follows the same decision.
  const bool includes_oldest = IsOldestComponent(picked.back());
  MergeCursor::Options mo;
  mo.readahead_pages = options_.scan_readahead_pages;
  mo.respect_bitmaps = steps.respect_bitmaps;
  mo.bitmap_overrides = steps.bitmap_snapshots;
  mo.drop_antimatter = includes_oldest;
  MergeCursor cursor(picked, mo);
  AUXLSM_RETURN_NOT_OK(cursor.Init());

  // The entry step runs before the cursor advances, so any lookup it makes
  // precedes the next input page read, entry by entry. A failed step or
  // read returns with the builder unfinished, which releases its file.
  //
  // The companion's entries are kept and built once the output is finished:
  // the write-through cache then admits the companion (the small index that
  // writers probe) after the output, not interleaved with it, where it
  // would age out with the output's pages. They are kept without values,
  // keys back to back (the bound is on MergeSteps::companion).
  struct TwinEntry {
    size_t key_end;
    Timestamp ts;
    bool antimatter;
  };
  LsmTree* const companion = steps.companion;
  ComponentBuilder out(this);
  std::string twin_keys;
  std::vector<TwinEntry> twin_entries;
  MergeSteps::Position at;
  OwnedEntry e;
  while (cursor.Valid()) {
    e.key = cursor.key().ToString();
    e.value = cursor.value().ToString();
    e.ts = cursor.ts();
    e.antimatter = cursor.antimatter();
    at.source = cursor.source();
    at.source_ordinal = cursor.source_ordinal();
    bool keep = true;
    if (steps.entry) AUXLSM_RETURN_NOT_OK(steps.entry(e, at, &keep));
    AUXLSM_RETURN_NOT_OK(cursor.Next());
    if (!keep) continue;
    AUXLSM_RETURN_NOT_OK(out.Add(e.key, e.value, e.ts, e.antimatter));
    if (companion != nullptr) {
      twin_keys += e.key;
      twin_entries.push_back(TwinEntry{twin_keys.size(), e.ts, e.antimatter});
    }
    at.ordinal++;
  }
  const ComponentId id{picked.back()->id().min_ts, picked.front()->id().max_ts};
  AUXLSM_ASSIGN_OR_RETURN(DiskComponentPtr merged, out.Finish(id));
  InheritFromInputs(merged.get(), picked, includes_oldest);

  // An output that is not installed is retired: that releases its file (and
  // its cached pages) with the last reference, whichever step failed.
  DiskComponentPtr twin;
  auto build_twin = [&]() -> Status {
    ComponentBuilder twin_out(companion);
    size_t key_begin = 0;
    for (const TwinEntry& t : twin_entries) {
      AUXLSM_RETURN_NOT_OK(twin_out.Add(
          Slice(twin_keys.data() + key_begin, t.key_end - key_begin),
          Slice(), t.ts, t.antimatter));
      key_begin = t.key_end;
    }
    AUXLSM_ASSIGN_OR_RETURN(twin, twin_out.Finish(id));
    companion->InheritFromInputs(twin.get(), picked, includes_oldest);
    return Status::OK();
  };
  bool merged_installed = false;
  auto install = [&]() -> Status {
    if (steps.before_install) {
      AUXLSM_RETURN_NOT_OK(steps.before_install(merged.get()));
    }
    if (twin == nullptr) return ReplaceComponents(picked, merged);
    // One validity bitmap per pair (§5.1), shared before either output is
    // visible: set_bitmap is not synchronized against readers.
    if (merged->bitmap() != nullptr) twin->set_bitmap(merged->bitmap());
    // The two lists' locks have one rank and must not nest, so the
    // companion's run is checked first. Only the pair's own merge removes
    // components from either list (flush installs only prepend), so its
    // replace then succeeds.
    AUXLSM_RETURN_NOT_OK(companion->CheckCurrent(steps.companion_picked));
    AUXLSM_RETURN_NOT_OK(ReplaceComponents(picked, merged));
    merged_installed = true;
    return companion->ReplaceComponents(steps.companion_picked, twin);
  };
  Status st = companion != nullptr ? build_twin() : Status::OK();
  if (st.ok() && steps.drain_writers != nullptr) {
    WriteLatchGuard drain(*steps.drain_writers);
    st = install();
  } else if (st.ok()) {
    st = install();
  }
  if (!st.ok()) {
    if (!merged_installed) merged->MarkRetired();
    if (twin != nullptr) twin->MarkRetired();
  }
  return st;
}

void LsmTree::InheritFromInputs(DiskComponent* out,
                                const std::vector<DiskComponentPtr>& in,
                                bool includes_oldest) const {
  // A merged component inherits the most conservative repair progress, and
  // the newest LSN any input carried: recovery replays the log from the
  // maximum component LSN, so merging away the components that carried it
  // must not shrink that watermark (a crash right after a full merge would
  // otherwise re-replay — and under Eager semantics corrupt — work the
  // merged component already contains).
  Timestamp repaired = in.front()->repaired_ts();
  uint64_t max_lsn = 0;
  for (const auto& c : in) {
    repaired = std::min(repaired, c->repaired_ts());
    max_lsn = std::max(max_lsn, c->max_lsn());
  }
  out->set_repaired_ts(repaired);
  out->set_max_lsn(max_lsn);
  // The merged range filter must stay the union of the inputs' filters
  // unless the merge reached the oldest component: a partial merge keeps
  // shadowing obsolete versions in older components, and the Eager
  // strategy's correctness depends on the filter still covering the old
  // values those versions carry (§3.1's widening invariant). Only a full
  // merge, which physically drops every obsolete version, may tighten the
  // filter to the surviving entries (computed during the build).
  if (options_.maintain_range_filter &&
      !(includes_oldest && options_.filter_key_extractor)) {
    RangeFilter f;
    for (const auto& c : in) {
      if (c->range_filter().has_value()) f.Merge(*c->range_filter());
    }
    out->set_range_filter(f);
  }
}

Status LsmTree::FindRun(const std::vector<DiskComponentPtr>& run,
                        size_t* pos) const {
  auto it = std::find(components_.begin(), components_.end(), run.front());
  if (it == components_.end() ||
      static_cast<size_t>(components_.end() - it) < run.size()) {
    return Status::InvalidArgument("components no longer current");
  }
  for (size_t i = 0; i < run.size(); i++) {
    if (*(it + i) != run[i]) {
      return Status::InvalidArgument("components no longer contiguous");
    }
  }
  *pos = static_cast<size_t>(it - components_.begin());
  return Status::OK();
}

Status LsmTree::CheckCurrent(const std::vector<DiskComponentPtr>& run) const {
  if (run.empty()) return Status::OK();
  MutexLock l(components_mu_);
  size_t pos = 0;
  return FindRun(run, &pos);
}

Status LsmTree::ReplaceComponents(
    const std::vector<DiskComponentPtr>& old_components,
    DiskComponentPtr replacement) {
  Status st = [&]() -> Status {
    MutexLock l(components_mu_);
    if (old_components.empty()) {
      if (replacement != nullptr) {
        components_.insert(components_.begin(), std::move(replacement));
      }
      return Status::OK();
    }
    size_t pos = 0;
    AUXLSM_RETURN_NOT_OK(FindRun(old_components, &pos));
    for (const auto& c : old_components) c->MarkRetired();
    auto it = components_.begin() + static_cast<long>(pos);
    it = components_.erase(it, it + static_cast<long>(old_components.size()));
    if (replacement != nullptr) {
      components_.insert(it, std::move(replacement));
    }
    return Status::OK();
  }();
  // Fire outside components_mu_ so the hook may take its own locks freely.
  if (st.ok() && install_hook_) install_hook_();
  return st;
}

size_t LsmTree::NumDiskComponents() const {
  MutexLock l(components_mu_);
  return components_.size();
}

}  // namespace auxlsm
