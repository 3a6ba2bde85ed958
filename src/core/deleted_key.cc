#include "core/deleted_key.h"

#include "format/key_codec.h"

namespace auxlsm {

Status RunDeletedKeyMergePicked(
    Dataset* ds, SecondaryIndex* index,
    const std::vector<DiskComponentPtr>& picked,
    const std::vector<DiskComponentPtr>& dk_picked) {
  // Per-entry point lookups against the deleted-key trees: an entry is
  // obsolete if its primary key was re-written with a newer timestamp. Only
  // their disk components count: the memory component may hold an open
  // transaction's rewrite, and an abort after the install would leave the
  // record without its entry. No-steal keeps uncommitted writes off disk;
  // an entry whose rewrite is not flushed yet survives until a later merge.
  GetOptions gopts;
  gopts.use_blocked_bloom = ds->options().build_blocked_bloom;
  gopts.search_memtable = false;
  MergeSteps steps;
  steps.entry = [&](const OwnedEntry& e, const MergeSteps::Position&,
                    bool* keep) -> Status {
    if (e.antimatter) return Status::OK();
    Slice pk;
    SplitSecondaryKey(e.key, index->def.sk_width, nullptr, &pk);
    LookupResult res;
    AUXLSM_RETURN_NOT_OK(index->deleted_keys->GetRaw(pk, &res, gopts));
    *keep = !(res.found && res.entry.ts > e.ts);
    return Status::OK();
  };
  AUXLSM_RETURN_NOT_OK(index->tree->MergeComponents(picked, steps));

  // The companion deleted-key tree merges in lock step.
  if (!dk_picked.empty()) {
    AUXLSM_RETURN_NOT_OK(index->deleted_keys->MergeComponents(dk_picked));
  }
  return Status::OK();
}

}  // namespace auxlsm
