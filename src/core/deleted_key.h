// Merge-time cleanup for the deleted-key B+-tree strategy (§4.1): when a
// secondary index's components merge, each surviving entry is validated
// against the index's own deleted-key trees. The deleted-key trees are
// duplicated per secondary index (unlike the single primary key index of
// §4.4), which is exactly the overhead Fig 15b measures.
#pragma once

#include "core/dataset.h"

namespace auxlsm {

/// Merges the captured secondary-index components, dropping entries whose
/// primary key the deleted-key tree holds with a newer timestamp, then, in
/// lock step, the captured companion deleted-key components (empty =
/// companion not merged). Picks are identities, not positions: a flush
/// install racing the merge shifts positions, and the install fails safe if
/// the picks are no longer current.
Status RunDeletedKeyMergePicked(Dataset* dataset, SecondaryIndex* index,
                                const std::vector<DiskComponentPtr>& picked,
                                const std::vector<DiskComponentPtr>& dk_picked);

}  // namespace auxlsm
