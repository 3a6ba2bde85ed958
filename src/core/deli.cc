// DELI-style primary repair [31] (§4.1, evaluated in §6.5): repair secondary
// indexes by scanning — or fully merging — the primary index components.
// Whenever multiple records with the same primary key are found, anti-matter
// entries for the obsolete versions are produced into the secondary indexes.
// Unlike §4.4's secondary repair this reads full records, so its cost tracks
// the primary index size (Fig 20/21).
#include "core/dataset.h"

namespace auxlsm {

Status Dataset::PrimaryRepair(bool with_merge) {
  // The scan reads disk components only, so flush first: a newest version
  // still in memory would let an older disk version pass for current, and
  // the anti-matter for that one's keys could overwrite the newest
  // version's live memtable entries.
  AUXLSM_RETURN_NOT_OK(FlushAll());
  auto comps = primary_->Components();
  if (!comps.empty()) {
    // K-way scan over all versions of each key (newest component first).
    std::vector<Btree::Iterator> iters;
    iters.reserve(comps.size());
    for (const auto& c : comps) {
      iters.push_back(c->tree().NewIterator(options_.scan_readahead_pages));
      AUXLSM_RETURN_NOT_OK(iters.back().SeekToFirst());
    }
    while (true) {
      int first = -1;
      for (size_t i = 0; i < iters.size(); i++) {
        if (!iters[i].Valid()) continue;
        if (first < 0 || iters[i].key().compare(iters[first].key()) < 0) {
          first = static_cast<int>(i);
        }
      }
      if (first < 0) break;
      const std::string key = iters[first].key().ToString();

      // Gather all versions of this key, newest (lowest component index)
      // first.
      bool newest_seen = false;
      TweetRecord newest_record;
      bool newest_alive = false;
      for (size_t i = 0; i < iters.size(); i++) {
        if (!iters[i].Valid() || iters[i].key() != Slice(key)) continue;
        const bool bitmap_dead = !comps[i]->EntryValid(iters[i].ordinal());
        if (!newest_seen) {
          newest_seen = true;
          newest_alive = !iters[i].antimatter() && !bitmap_dead;
          if (newest_alive) {
            AUXLSM_RETURN_NOT_OK(
                TweetRecord::Deserialize(iters[i].value(), &newest_record));
          }
        } else if (!iters[i].antimatter() && !bitmap_dead) {
          // Obsolete version: clean its secondary entries. The latch keeps
          // a concurrent seal from swallowing the anti-matter mid-write.
          TweetRecord old_record;
          AUXLSM_RETURN_NOT_OK(
              TweetRecord::Deserialize(iters[i].value(), &old_record));
          ReadLatchGuard latch(ingest_mu_);
          CancelSecondaries(old_record, newest_alive ? &newest_record : nullptr,
                            clock_.Tick(), nullptr);
        }
        AUXLSM_RETURN_NOT_OK(iters[i].Next());
      }
    }
  }

  if (with_merge) AUXLSM_RETURN_NOT_OK(FullPairMerge());
  // Push the produced anti-matter through the LSM machinery so the secondary
  // indexes are physically cleaned (queries would already see them).
  AUXLSM_RETURN_NOT_OK(FlushAll());
  for (auto& s : secondaries_) {
    AUXLSM_RETURN_NOT_OK(s->tree->MergeAll());
    if (s->deleted_keys) AUXLSM_RETURN_NOT_OK(s->deleted_keys->MergeAll());
  }
  stats_.repairs++;
  return Status::OK();
}

}  // namespace auxlsm
