// Ingestion paths for the four maintenance strategies (§3.1, §4.2, §5.2).
#include <chrono>
#include <cmath>

#include "core/dataset.h"
#include "core/mutable_bitmap_build.h"
#include "format/key_codec.h"

namespace auxlsm {

namespace {

/// Puts an entry into an index's memory component, registering the inverse
/// operation with the transaction when rollback must be possible.
void PutIndex(LsmTree* tree, const Slice& key, const Slice& value,
              Timestamp ts, bool antimatter, Transaction* undo_txn) {
  if (undo_txn != nullptr) {
    // Undo closures may outlive this operation's latch hold; keep the target
    // memtable alive by shared_ptr so it cannot dangle. The flush routine's
    // seal defers while explicit transactions are open (no-steal), so the
    // closures' target is still the live memtable when a rollback runs.
    std::shared_ptr<Memtable> mem = tree->active_memtable();
    OwnedEntry prev;
    const bool had_prev = mem->Get(key, &prev).ok();
    std::string k = key.ToString();
    if (had_prev) {
      MemEntry restore{prev.value, prev.ts, prev.antimatter};
      undo_txn->PushUndo(
          [mem, k, restore]() { mem->Restore(k, restore); });
    } else {
      undo_txn->PushUndo([mem, k, ts]() { mem->EraseIfTs(k, ts); });
    }
  }
  if (antimatter) {
    tree->PutAntimatter(key, ts);
  } else {
    tree->Put(key, value, ts);
  }
}

}  // namespace

Status Dataset::Insert(const TweetRecord& record, bool* inserted) {
  return IngestOp(LogRecordType::kInsert, record, nullptr, inserted, true);
}
Status Dataset::Upsert(const TweetRecord& record) {
  return IngestOp(LogRecordType::kUpsert, record, nullptr, nullptr, true);
}
Status Dataset::Delete(uint64_t id) {
  TweetRecord r;
  r.id = id;
  return IngestOp(LogRecordType::kDelete, r, nullptr, nullptr, true);
}
Status Dataset::InsertTxn(const TweetRecord& record, Transaction* txn,
                          bool* inserted) {
  return IngestOp(LogRecordType::kInsert, record, txn, inserted, true);
}
Status Dataset::UpsertTxn(const TweetRecord& record, Transaction* txn) {
  return IngestOp(LogRecordType::kUpsert, record, txn, nullptr, true);
}
Status Dataset::DeleteTxn(uint64_t id, Transaction* txn) {
  TweetRecord r;
  r.id = id;
  return IngestOp(LogRecordType::kDelete, r, txn, nullptr, true);
}

Status Dataset::InsertIntoAll(const TweetRecord& record, Timestamp ts,
                              Transaction* txn) {
  const std::string pk = record.primary_key();
  PutIndex(primary_.get(), pk, record.Serialize(), ts, false, txn);
  if (pk_index_) PutIndex(pk_index_.get(), pk, Slice(), ts, false, txn);
  for (auto& s : secondaries_) {
    PutIndex(s->tree.get(), ComposeSecondaryKey(s->def.extract(record), pk),
             Slice(), ts, false, txn);
  }
  if (options_.maintain_range_filter) {
    primary_->mem_range_filter()->Expand(record.creation_time);
  }
  return Status::OK();
}

Status Dataset::EagerUpsert(const TweetRecord& record, Timestamp ts,
                            Transaction* txn, bool is_delete) {
  const std::string pk = record.primary_key();
  // Point lookup to fetch the old record (§3.1).
  OwnedEntry old_entry;
  GetOptions gopts;
  gopts.use_blocked_bloom = options_.build_blocked_bloom;
  Status st = primary_->Get(pk, &old_entry, gopts);
  stats_.ingest_point_lookups++;
  const bool old_exists = st.ok();
  if (!old_exists && !st.IsNotFound()) return st;

  TweetRecord old_record;
  if (old_exists) {
    AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(old_entry.value, &old_record));
  }
  if (is_delete) {
    if (!old_exists) return Status::OK();  // deleting a missing key: ignore
    PutIndex(primary_.get(), pk, Slice(), ts, true, txn);
    if (pk_index_) PutIndex(pk_index_.get(), pk, Slice(), ts, true, txn);
    for (auto& s : secondaries_) {
      PutIndex(s->tree.get(),
               ComposeSecondaryKey(s->def.extract(old_record), pk), Slice(),
               ts, true, txn);
    }
    // Filters must reflect the deleted record, or scans could prune the
    // memory component and resurrect it (§3.1).
    if (options_.maintain_range_filter) {
      primary_->mem_range_filter()->Expand(old_record.creation_time);
    }
    return Status::OK();
  }

  // Upsert: anti-matter for the old secondary entries, then insert anew.
  if (old_exists) {
    for (auto& s : secondaries_) {
      const std::string old_sk = s->def.extract(old_record);
      const std::string new_sk = s->def.extract(record);
      if (old_sk != new_sk) {  // unchanged keys skip maintenance (§3.1)
        PutIndex(s->tree.get(), ComposeSecondaryKey(old_sk, pk), Slice(), ts,
                 true, txn);
      }
    }
    if (options_.maintain_range_filter) {
      primary_->mem_range_filter()->Expand(old_record.creation_time);
    }
  }
  PutIndex(primary_.get(), pk, record.Serialize(), ts, false, txn);
  if (pk_index_) PutIndex(pk_index_.get(), pk, Slice(), ts, false, txn);
  for (auto& s : secondaries_) {
    PutIndex(s->tree.get(), ComposeSecondaryKey(s->def.extract(record), pk),
             Slice(), ts, false, txn);
  }
  if (options_.maintain_range_filter) {
    primary_->mem_range_filter()->Expand(record.creation_time);
  }
  return Status::OK();
}

Status Dataset::ValidationUpsert(const TweetRecord& record, Timestamp ts,
                                 Transaction* txn, bool is_delete) {
  const std::string pk = record.primary_key();
  // Memory-component optimization (§4.2): the memory components must be
  // searched to place the new entry anyway, so an old record found there
  // (active or sealed) cleans the secondary indexes for free.
  OwnedEntry mem_old;
  const bool mem_hit = primary_->GetFromMem(pk, &mem_old).ok() &&
                       !mem_old.antimatter;
  TweetRecord old_record;
  if (mem_hit) {
    AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(mem_old.value, &old_record));
  }

  if (is_delete) {
    PutIndex(primary_.get(), pk, Slice(), ts, true, txn);
    if (pk_index_) PutIndex(pk_index_.get(), pk, Slice(), ts, true, txn);
    if (mem_hit) {
      for (auto& s : secondaries_) {
        PutIndex(s->tree.get(),
                 ComposeSecondaryKey(s->def.extract(old_record), pk), Slice(),
                 ts, true, txn);
      }
    }
    return Status::OK();
  }

  if (mem_hit) {
    for (auto& s : secondaries_) {
      const std::string old_sk = s->def.extract(old_record);
      if (old_sk != s->def.extract(record)) {
        PutIndex(s->tree.get(), ComposeSecondaryKey(old_sk, pk), Slice(), ts,
                 true, txn);
      }
    }
  }
  PutIndex(primary_.get(), pk, record.Serialize(), ts, false, txn);
  if (pk_index_) PutIndex(pk_index_.get(), pk, Slice(), ts, false, txn);
  for (auto& s : secondaries_) {
    PutIndex(s->tree.get(), ComposeSecondaryKey(s->def.extract(record), pk),
             Slice(), ts, false, txn);
  }
  // Filters are maintained on the new record only (§4.2); queries over older
  // components compensate by also reading newer components.
  if (options_.maintain_range_filter) {
    primary_->mem_range_filter()->Expand(record.creation_time);
  }
  return Status::OK();
}

Status Dataset::DeletedKeyUpsert(const TweetRecord& record, Timestamp ts,
                                 Transaction* txn, bool is_delete) {
  // Blind maintenance as under Validation, but each secondary index records
  // the (re)written primary key in its companion deleted-key tree so queries
  // and merges can invalidate older entries (§4.1).
  const std::string pk = record.primary_key();
  AUXLSM_RETURN_NOT_OK(ValidationUpsert(record, ts, txn, is_delete));
  for (auto& s : secondaries_) {
    PutIndex(s->deleted_keys.get(), pk, Slice(), ts, false, txn);
  }
  return Status::OK();
}

Status Dataset::MutableBitmapUpsert(const TweetRecord& record, Timestamp ts,
                                    Transaction* txn, bool is_delete,
                                    bool* update_bit) {
  *update_bit = false;
  const std::string pk = record.primary_key();
  LsmTree* finder = pk_index_ ? pk_index_.get() : primary_.get();

  // Search the primary key index — never the full records (§5.2).
  LookupResult res;
  GetOptions gopts;
  gopts.use_blocked_bloom = options_.build_blocked_bloom;
  gopts.respect_bitmaps = true;
  AUXLSM_RETURN_NOT_OK(finder->GetRaw(pk, &res, gopts));
  stats_.ingest_point_lookups++;

  const bool old_in_disk = res.found && !res.entry.antimatter &&
                           !res.from_memtable && res.component != nullptr;
  const bool old_in_mem = res.found && !res.entry.antimatter &&
                          res.from_memtable;
  if (is_delete && !res.found) return Status::OK();
  if (is_delete && res.entry.antimatter) return Status::OK();

  // Old version live in a *sealed* memtable: this write supersedes an entry
  // that is being flushed right now and will surface as valid in the new
  // component. Record it so the install-time bitmap fixup marks exactly
  // these entries (O(recorded deletes) instead of scanning the whole active
  // memtable under the exclusive latch). An old version in the *active*
  // memtable needs nothing — both versions flush together and reconcile —
  // and one on disk had its bit flipped directly below.
  if (old_in_mem && res.from_sealed) {
    RecordBitmapFixup(pk, ts);
    if (txn != nullptr) {
      // An abort must retract the recorded supersession, or the install-time
      // fixup would mark the (still live) old version deleted.
      txn->PushUndo([this, pk, ts]() {
        MutexLock l(fixup_mu_);
        auto& v = pending_bitmap_fixups_;
        for (auto it = v.begin(); it != v.end(); ++it) {
          if (it->first == pk && it->second == ts) {
            v.erase(it);
            break;
          }
        }
      });
    }
  }

  if (old_in_disk && res.component->bitmap() != nullptr) {
    // Mark the old version deleted directly in the disk component.
    const uint64_t ordinal = res.ordinal;
    auto bitmap = res.component->bitmap();
    const bool was_set = bitmap->Set(ordinal);
    if (!was_set) {
      *update_bit = true;
      if (txn != nullptr) {
        // Aborts flip the bit back from 1 to 0 (§5.2 footnote).
        txn->PushUndo([bitmap, ordinal]() { bitmap->Unset(ordinal); });
      }
      // If a concurrent flush/merge is building a new component from this
      // one, propagate the delete (§5.3).
      auto link = res.component->build_link();
      if (link != nullptr) {
        ApplyDeleteToBuild(link.get(), pk, txn);
      }
    }
  }

  // The memory-component optimization applies as under Validation.
  OwnedEntry mem_old;
  TweetRecord old_record;
  const bool mem_hit = old_in_mem &&
                       primary_->GetFromMem(pk, &mem_old).ok() &&
                       !mem_old.antimatter &&
                       TweetRecord::Deserialize(mem_old.value, &old_record).ok();

  if (is_delete) {
    // Anti-matter keeps LSM semantics intact and lets Validation-maintained
    // secondaries validate against recently ingested keys (§5.2).
    PutIndex(primary_.get(), pk, Slice(), ts, true, txn);
    if (pk_index_) PutIndex(pk_index_.get(), pk, Slice(), ts, true, txn);
    if (mem_hit) {
      for (auto& s : secondaries_) {
        PutIndex(s->tree.get(),
                 ComposeSecondaryKey(s->def.extract(old_record), pk), Slice(),
                 ts, true, txn);
      }
    }
    return Status::OK();
  }

  if (mem_hit) {
    for (auto& s : secondaries_) {
      const std::string old_sk = s->def.extract(old_record);
      if (old_sk != s->def.extract(record)) {
        PutIndex(s->tree.get(), ComposeSecondaryKey(old_sk, pk), Slice(), ts,
                 true, txn);
      }
    }
  }
  PutIndex(primary_.get(), pk, record.Serialize(), ts, false, txn);
  if (pk_index_) PutIndex(pk_index_.get(), pk, Slice(), ts, false, txn);
  for (auto& s : secondaries_) {
    PutIndex(s->tree.get(), ComposeSecondaryKey(s->def.extract(record), pk),
             Slice(), ts, false, txn);
  }
  // Filters are maintained on the new record only — the bitmap already
  // reflects the old record's deletion, so no widening is needed (§5.2).
  if (options_.maintain_range_filter) {
    primary_->mem_range_filter()->Expand(record.creation_time);
  }
  return Status::OK();
}

Status Dataset::IngestOp(LogRecordType op, const TweetRecord& record,
                         Transaction* txn, bool* inserted, bool log_to_wal) {
  // Degraded read-only mode: maintenance exhausted its retry budget (or hit
  // a permanent error), so ingest fails fast with the sticky cause while
  // reads keep serving the installed components. TakeBackgroundError()
  // re-arms the pipeline. This is the only place a maintenance error
  // reaches an op — before any effect; a sticky merge-queue error counts
  // even if its job did not degrade the dataset itself.
  if (degraded_.load(std::memory_order_acquire) ||
      maintenance_->has_merge_error()) {
    return DegradedError();
  }

  // Observability: per-op latency histograms (modeled = storage + log device
  // work this op charged; wall = host time) and an optional trace span. Both
  // reduce to null-pointer branches when unarmed; neither charges modeled
  // time itself.
  obs::TraceSpan op_span(tracer_.get(), "ingest.op", "ingest");
  struct OpLatencyGuard {
    Dataset* ds = nullptr;
    double modeled0 = 0;
    std::chrono::steady_clock::time_point wall0;
    explicit OpLatencyGuard(Dataset* d) {
      if (d->hist_ingest_modeled_ == nullptr) return;
      ds = d;
      modeled0 =
          d->env_->stats().simulated_us + d->wal_.stats().simulated_us;
      wall0 = std::chrono::steady_clock::now();
    }
    ~OpLatencyGuard() {
      if (ds == nullptr) return;
      const double modeled1 =
          ds->env_->stats().simulated_us + ds->wal_.stats().simulated_us;
      ds->hist_ingest_modeled_->Record(
          uint64_t(std::llround((modeled1 - modeled0) * 1000.0)));
      ds->hist_ingest_wall_->Record(uint64_t(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - wall0)
              .count()));
    }
  } op_latency(this);

  ReadLatchGuard ingest_lock(ingest_mu_);

  std::unique_ptr<Transaction> auto_txn;
  const bool owns_txn = txn == nullptr;
  if (owns_txn) {
    auto_txn = txns_.Begin();
    txn = auto_txn.get();
  }
  // Record-level X lock on the primary key for the transaction's duration.
  const std::string pk = record.primary_key();
  txn->Lock(pk, LockMode::kExclusive);
  // Auto-commit transactions never roll back; skip undo bookkeeping — unless
  // a fault injector is armed: an injected WAL drop must be able to undo the
  // op's memtable effects, or unlogged state would survive to the next flush.
  Transaction* undo_txn =
      owns_txn && options_.fault_injector == nullptr ? nullptr : txn;

  const Timestamp ts = clock_.Tick();
  bool update_bit = false;

  // Tuple-cache rollback handling. An abort restores old values whose cache
  // positions — the record's *old* secondary keys — are unknown here in
  // general (lazy strategies never read the old record), and a proven-empty
  // claim a concurrent reader cached over such a position between the
  // forward write and the rollback would survive any pk-precise re-cut. So
  // rollback degrades to dropping the whole cache, with the undo closures'
  // memtable restores inside the same write fence as the forward path
  // (Transaction::Rollback holds the fence across the undos and the Clear).
  // Installing per op is idempotent.
  if (tuple_cache_ && undo_txn != nullptr) {
    undo_txn->SetRollbackCache(tuple_cache_.get());
  }

  // Write fence: in flight from before the first memtable effect until
  // after the cut below. The effect can be visible to a reader before the
  // cut runs; the fence keeps that reader's (pre-effect) snapshot out of
  // the cache even though its captured epoch is still current.
  TupleCacheWriteFence cache_fence(tuple_cache_.get());

  if (op == LogRecordType::kInsert) {
    // Key-uniqueness check through the primary key index when available
    // (§3.1's optimization), else the primary index.
    LsmTree* checker = pk_index_ ? pk_index_.get() : primary_.get();
    OwnedEntry existing;
    GetOptions gopts;
    gopts.use_blocked_bloom = options_.build_blocked_bloom;
    Status st = checker->Get(pk, &existing, gopts);
    stats_.ingest_point_lookups++;
    if (st.ok()) {
      stats_.duplicates_ignored++;
      if (inserted != nullptr) *inserted = false;
      if (owns_txn) return txn->Commit();
      return Status::OK();
    }
    if (!st.IsNotFound()) return st;
    AUXLSM_RETURN_NOT_OK(InsertIntoAll(record, ts, undo_txn));
    if (inserted != nullptr) *inserted = true;
    stats_.inserts++;
  } else {
    const bool is_delete = op == LogRecordType::kDelete;
    switch (options_.strategy) {
      case MaintenanceStrategy::kEager:
        AUXLSM_RETURN_NOT_OK(EagerUpsert(record, ts, undo_txn, is_delete));
        break;
      case MaintenanceStrategy::kValidation:
        AUXLSM_RETURN_NOT_OK(ValidationUpsert(record, ts, undo_txn, is_delete));
        break;
      case MaintenanceStrategy::kMutableBitmap:
        AUXLSM_RETURN_NOT_OK(
            MutableBitmapUpsert(record, ts, undo_txn, is_delete, &update_bit));
        break;
      case MaintenanceStrategy::kDeletedKeyBtree:
        AUXLSM_RETURN_NOT_OK(DeletedKeyUpsert(record, ts, undo_txn, is_delete));
        break;
    }
    if (is_delete) {
      stats_.deletes++;
    } else {
      stats_.upserts++;
    }
  }

  // The write's memtable effects are visible; invalidate under the shared
  // ingest latch so the cut cannot be reordered past a seal.
  InvalidateTupleCache(record, op);

  if (log_to_wal && options_.enable_wal) {
    LogRecord r;
    r.type = op;
    r.key = pk;
    if (op != LogRecordType::kDelete) r.value = record.Serialize();
    r.ts = ts;
    r.update_bit = update_bit;
    if (txn->Log(std::move(r)) == kInvalidLsn) {
      // The WAL dropped the operation record (fault injection / crash): the
      // op can never be durable. Abort the transaction — its undo closures
      // remove the memtable effects — and surface the injector's parked
      // error. A transaction with a hole in its log must not commit: its
      // other records would replay while this op silently vanished.
      txn->Abort();
      Status parked;
      if (options_.fault_injector != nullptr) {
        parked = options_.fault_injector->TakePending();
      }
      return parked.ok() ? Status::IOError("wal dropped the log record")
                         : parked;
    }
  }
  if (owns_txn) {
    const Status cs = txn->Commit();
    if (!cs.ok()) {
      // Prefer the injector's parked Status: it names the failpoint site.
      if (options_.fault_injector != nullptr) {
        const Status parked = options_.fault_injector->TakePending();
        if (!parked.ok()) return parked;
      }
      return cs;
    }
  }

  ingest_lock.Release();
  CheckBudgetAndMaintain(/*in_explicit_txn=*/!owns_txn);
  return Status::OK();
}

Status Dataset::ReplayOp(const LogRecord& r, const TweetRecord& record) {
  // Replay runs single-threaded before the dataset is opened for traffic,
  // but the strategy helpers require the shared ingest latch — acquiring it
  // here (uncontended, a few atomics) keeps their contract uniform instead
  // of punching a recovery-only hole through the annotations.
  ReadLatchGuard replay_latch(ingest_mu_);
  clock_.AdvanceTo(r.ts);
  bool update_bit = false;
  Status st;
  if (r.type == LogRecordType::kInsert) {
    // Inserts passed their uniqueness check originally; redo blindly.
    st = InsertIntoAll(record, r.ts, nullptr);
  } else {
    const bool is_delete = r.type == LogRecordType::kDelete;
    switch (options_.strategy) {
      case MaintenanceStrategy::kEager:
        st = EagerUpsert(record, r.ts, nullptr, is_delete);
        break;
      case MaintenanceStrategy::kValidation:
        st = ValidationUpsert(record, r.ts, nullptr, is_delete);
        break;
      case MaintenanceStrategy::kMutableBitmap:
        st = MutableBitmapUpsert(record, r.ts, nullptr, is_delete,
                                 &update_bit);
        break;
      case MaintenanceStrategy::kDeletedKeyBtree:
        st = DeletedKeyUpsert(record, r.ts, nullptr, is_delete);
        break;
    }
  }
  // Defensive: recovery normally precedes reads, but a cache created before
  // replay must not serve pre-replay outcomes.
  if (st.ok()) InvalidateTupleCache(record, r.type);
  return st;
}

Status Dataset::ReplayBitmap(const LogRecord& r) {
  // The record's data already lives in disk components; re-mark the version
  // older than r.ts as deleted (its bitmap change may have been lost in the
  // crash — bitmaps are no-steal/no-force with checkpoints, §5.2).
  LsmTree* finder = pk_index_ ? pk_index_.get() : primary_.get();
  for (const auto& c : finder->Components()) {
    LeafEntry entry;
    std::string backing;
    uint64_t ordinal = 0;
    Status st = c->tree().GetWithOrdinal(r.key, &entry, &backing, &ordinal);
    if (st.IsNotFound()) continue;
    AUXLSM_RETURN_NOT_OK(st);
    if (entry.ts >= r.ts || entry.antimatter) continue;  // not the old version
    if (c->bitmap() == nullptr) {
      // The log says this component's version was superseded (update bit),
      // but the recovered component cannot record it — returning OK here
      // would silently resurrect the old version. Under the Mutable-bitmap
      // strategy every primary/pk component carries a bitmap, so a missing
      // one means the checkpointed catalog and the log disagree.
      return Status::Corruption(
          "bitmap redo for '" + r.key + "' targets component without bitmap");
    }
    c->bitmap()->Set(ordinal);
    if (tuple_cache_) tuple_cache_->InvalidatePk(r.key);
    return Status::OK();
  }
  return Status::OK();
}

void Dataset::InvalidateTupleCache(const TweetRecord& record,
                                   LogRecordType op) {
  // Every caller must hold the ingest latch at least shared: invalidation
  // racing a stop-the-world install could otherwise cut the cache before the
  // install publishes, leaving a stale tuple behind.
  ingest_mu_.AssertHeldShared();
  if (!tuple_cache_) return;
  // The pk cut also fences every range space (epoch bump) and drops any
  // cached tuple for this pk wherever its *old* secondary keys placed it.
  tuple_cache_->InvalidatePk(record.primary_key());
  if (op == LogRecordType::kDelete) return;  // old positions covered above
  // The record's *new* secondary keys gain a result; cut those positions.
  for (size_t i = 0; i < secondaries_.size(); i++) {
    const auto& def = secondaries_[i]->def;
    if (def.sk_width != sizeof(uint64_t)) continue;
    tuple_cache_->InvalidateKey(TupleCacheSpaceOf(i),
                                DecodeU64(def.extract(record)));
  }
}

}  // namespace auxlsm
