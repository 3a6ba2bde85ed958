// Secondary index repair (§4.4, Fig 7): validate a component's primary keys
// against the primary key index, recording obsolete entries in an immutable
// validity bitmap. Merge repair does this as part of a merge; standalone
// repair only creates a new bitmap.
#include <algorithm>

#include "btree/btree_cursor.h"
#include "common/hash.h"
#include "core/dataset.h"
#include "format/key_codec.h"

namespace auxlsm {

namespace {

struct RepairKey {
  std::string pk;
  Timestamp ts = 0;
  uint64_t position = 0;
};

/// Validates keys (sorted by pk) against the primary key index components
/// with max_ts > repaired_ts (older components are pruned — their entries
/// cannot invalidate anything ingested before repaired_ts). Invalid keys'
/// positions are set in *bitmap. Advances *new_repaired_ts to the maximum
/// timestamp covered by the components searched.
Status ValidateSortedKeys(Dataset* ds, std::vector<RepairKey>* keys,
                          Timestamp repaired_ts, bool use_bloom_opt,
                          Bitmap* bitmap, Timestamp* new_repaired_ts) {
  LsmTree* finder = ds->primary_key_index() != nullptr
                        ? ds->primary_key_index()
                        : ds->primary();
  std::vector<DiskComponentPtr> unpruned;
  Timestamp covered = repaired_ts;
  uint64_t recent_keys = 0;
  for (const auto& c : finder->Components()) {
    if (c->id().max_ts <= repaired_ts) continue;  // prunable (§4.4)
    unpruned.push_back(c);
    covered = std::max(covered, c->id().max_ts);
    recent_keys += c->num_entries();
  }
  *new_repaired_ts = covered;
  if (unpruned.empty()) return Status::OK();

  // Bloom filter optimization (§4.4): a key absent from every unpruned
  // component's Bloom filter cannot have been updated; exclude it before the
  // sort+validate work.
  if (use_bloom_opt) {
    keys->erase(std::remove_if(keys->begin(), keys->end(),
                               [&](const RepairKey& k) {
                                 const uint64_t h = Hash64(k.pk);
                                 for (const auto& c : unpruned) {
                                   if (c->MayContain(h, false)) return false;
                                 }
                                 return true;  // definitely not updated
                               }),
                keys->end());
  }
  std::sort(keys->begin(), keys->end(),
            [](const RepairKey& a, const RepairKey& b) { return a.pk < b.pk; });

  auto invalidates = [](Timestamp newer_ts, Timestamp entry_ts) {
    return newer_ts > entry_ts;
  };

  if (keys->size() > recent_keys) {
    // More keys to validate than recently ingested keys: merge-scan the
    // sorted keys with the unpruned primary key index components (§4.4).
    MergeCursor::Options mo;
    mo.respect_bitmaps = true;
    mo.drop_antimatter = false;  // anti-matter invalidates too
    MergeCursor cursor(unpruned, mo);
    AUXLSM_RETURN_NOT_OK(cursor.Init());
    size_t i = 0;
    while (cursor.Valid() && i < keys->size()) {
      const int cmp = Slice((*keys)[i].pk).compare(cursor.key());
      if (cmp < 0) {
        i++;
      } else if (cmp > 0) {
        AUXLSM_RETURN_NOT_OK(cursor.Next());
      } else {
        // All repair keys with this pk share the comparison point.
        while (i < keys->size() && Slice((*keys)[i].pk) == cursor.key()) {
          if (invalidates(cursor.ts(), (*keys)[i].ts)) {
            bitmap->Set((*keys)[i].position);
          }
          i++;
        }
        AUXLSM_RETURN_NOT_OK(cursor.Next());
      }
    }
  } else {
    // Point lookups (newest unpruned entry per key), stateful per component
    // since the keys are sorted.
    std::vector<StatefulBtreeCursor> cursors;
    cursors.reserve(unpruned.size());
    for (const auto& c : unpruned) {
      cursors.emplace_back(&c->tree());
    }
    for (auto& k : *keys) {
      const uint64_t h = Hash64(k.pk);
      for (size_t ci = 0; ci < unpruned.size(); ci++) {
        if (!unpruned[ci]->MayContain(h, false)) continue;
        LeafEntry entry;
        std::string backing;
        bool found = false;
        AUXLSM_RETURN_NOT_OK(
            cursors[ci].SeekExact(k.pk, &entry, &backing, &found));
        if (!found) continue;
        if (invalidates(entry.ts, k.ts)) bitmap->Set(k.position);
        break;  // newest unpruned component wins
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status RunMergeRepair(Dataset* ds, SecondaryIndex* index,
                      const std::vector<DiskComponentPtr>& picked) {
  // Fig 7 lines 1-7: the merge streams (pkey, ts, position) of every valid
  // entry it writes to the sorter.
  std::vector<RepairKey> repair_keys;
  MergeSteps steps;
  steps.entry = [&](const OwnedEntry& e, const MergeSteps::Position& at,
                    bool*) {
    if (!e.antimatter) {
      Slice pk;
      SplitSecondaryKey(e.key, index->def.sk_width, nullptr, &pk);
      repair_keys.push_back(RepairKey{pk.ToString(), e.ts, at.ordinal});
    }
    return Status::OK();
  };
  // Fig 7 lines 8-13: sort, validate, set bitmap bits — before the install,
  // since set_bitmap is not synchronized against readers. Validation starts
  // from the inputs' most conservative repaired_ts, which the merged
  // component has inherited.
  steps.before_install = [&](DiskComponent* merged) -> Status {
    auto bitmap = std::make_shared<Bitmap>(merged->num_entries());
    Timestamp new_repaired = merged->repaired_ts();
    AUXLSM_RETURN_NOT_OK(ValidateSortedKeys(
        ds, &repair_keys, merged->repaired_ts(),
        ds->options().repair_bloom_opt, bitmap.get(), &new_repaired));
    if (bitmap->CountSet() > 0) merged->set_bitmap(std::move(bitmap));
    merged->set_repaired_ts(new_repaired);
    return Status::OK();
  };
  return index->tree->MergeComponents(picked, steps);
}

Status RunStandaloneRepair(Dataset* ds, SecondaryIndex* index) {
  // Standalone repair produces only a fresh bitmap per component (§4.4).
  for (const auto& c : index->tree->Components()) {
    std::vector<RepairKey> repair_keys;
    repair_keys.reserve(c->num_entries());
    auto it = c->tree().NewIterator(ds->options().scan_readahead_pages);
    AUXLSM_RETURN_NOT_OK(it.SeekToFirst());
    while (it.Valid()) {
      const bool already_invalid =
          c->bitmap() != nullptr && c->bitmap()->Test(it.ordinal());
      if (!already_invalid && !it.antimatter()) {
        Slice pk;
        SplitSecondaryKey(it.key(), index->def.sk_width, nullptr, &pk);
        repair_keys.push_back(RepairKey{pk.ToString(), it.ts(), it.ordinal()});
      }
      AUXLSM_RETURN_NOT_OK(it.Next());
    }
    auto bitmap = std::make_shared<Bitmap>(c->num_entries());
    if (c->bitmap() != nullptr) bitmap->UnionWith(*c->bitmap());
    Timestamp new_repaired = c->repaired_ts();
    AUXLSM_RETURN_NOT_OK(ValidateSortedKeys(ds, &repair_keys,
                                            c->repaired_ts(),
                                            ds->options().repair_bloom_opt,
                                            bitmap.get(), &new_repaired));
    c->set_bitmap(std::move(bitmap));
    c->set_repaired_ts(new_repaired);
  }
  return Status::OK();
}

Status Dataset::RepairAllSecondaries() {
  for (auto& s : secondaries_) {
    AUXLSM_RETURN_NOT_OK(RunStandaloneRepair(this, s.get()));
    stats_.repairs++;
  }
  return Status::OK();
}

}  // namespace auxlsm
