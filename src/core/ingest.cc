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
  return IngestOp(LogRecordType::kInsert, record, nullptr, inserted);
}
Status Dataset::Upsert(const TweetRecord& record) {
  return IngestOp(LogRecordType::kUpsert, record, nullptr, nullptr);
}
Status Dataset::Delete(uint64_t id) {
  TweetRecord r;
  r.id = id;
  return IngestOp(LogRecordType::kDelete, r, nullptr, nullptr);
}
Status Dataset::InsertTxn(const TweetRecord& record, Transaction* txn,
                          bool* inserted) {
  return IngestOp(LogRecordType::kInsert, record, txn, inserted);
}
Status Dataset::UpsertTxn(const TweetRecord& record, Transaction* txn) {
  return IngestOp(LogRecordType::kUpsert, record, txn, nullptr);
}
Status Dataset::DeleteTxn(uint64_t id, Transaction* txn) {
  TweetRecord r;
  r.id = id;
  return IngestOp(LogRecordType::kDelete, r, txn, nullptr);
}

void Dataset::CancelSecondaries(const TweetRecord& old,
                                const TweetRecord* newer, Timestamp ts,
                                Transaction* txn) {
  const std::string pk = old.primary_key();
  for (auto& s : secondaries_) {
    const std::string old_sk = s->def.extract(old);
    // Unchanged keys skip maintenance (§3.1): the new entry overrides.
    if (newer != nullptr && old_sk == s->def.extract(*newer)) continue;
    PutIndex(s->tree.get(), ComposeSecondaryKey(old_sk, pk), Slice(), ts,
             true, txn);
  }
}

void Dataset::WriteVersion(const TweetRecord& record, const TweetRecord* old,
                           Timestamp ts, Transaction* txn, bool is_delete) {
  const std::string pk = record.primary_key();
  if (old != nullptr) {
    CancelSecondaries(*old, is_delete ? nullptr : &record, ts, txn);
  }
  const std::string value = is_delete ? std::string() : record.Serialize();
  PutIndex(primary_.get(), pk, value, ts, is_delete, txn);
  if (pk_index_) PutIndex(pk_index_.get(), pk, Slice(), ts, is_delete, txn);
  if (is_delete) return;
  for (auto& s : secondaries_) {
    PutIndex(s->tree.get(), ComposeSecondaryKey(s->def.extract(record), pk),
             Slice(), ts, false, txn);
  }
  if (options_.maintain_range_filter) {
    primary_->mem_range_filter()->Expand(record.creation_time);
  }
}

Status Dataset::EagerUpsert(const TweetRecord& record, Timestamp ts,
                            Transaction* txn, bool is_delete) {
  // Point lookup to fetch the old record (§3.1).
  OwnedEntry old_entry;
  GetOptions gopts;
  gopts.use_blocked_bloom = options_.build_blocked_bloom;
  Status st = primary_->Get(record.primary_key(), &old_entry, gopts);
  stats_.ingest_point_lookups++;
  if (st.IsNotFound()) {
    // Nothing to replace; deleting a missing key writes nothing.
    if (!is_delete) WriteVersion(record, nullptr, ts, txn, false);
    return Status::OK();
  }
  AUXLSM_RETURN_NOT_OK(st);
  TweetRecord old;
  AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(old_entry.value, &old));
  // The filter keeps covering the replaced version, or scans could prune
  // the memory component and resurrect it (§3.1).
  if (options_.maintain_range_filter) {
    primary_->mem_range_filter()->Expand(old.creation_time);
  }
  WriteVersion(record, &old, ts, txn, is_delete);
  return Status::OK();
}

Status Dataset::ValidationUpsert(const TweetRecord& record, Timestamp ts,
                                 Transaction* txn, bool is_delete) {
  // Memory-component optimization (§4.2): the memory components must be
  // searched to place the new entry anyway, so an old record found there
  // (active or sealed) cleans the secondary indexes for free. Otherwise the
  // write is blind, deletes included. Filters are maintained on the new
  // record only; queries over older components compensate by also reading
  // newer components.
  OwnedEntry mem_old;
  TweetRecord old;
  const bool mem_hit =
      primary_->GetFromMem(record.primary_key(), &mem_old).ok() &&
      !mem_old.antimatter;
  if (mem_hit) {
    AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(mem_old.value, &old));
  }
  WriteVersion(record, mem_hit ? &old : nullptr, ts, txn, is_delete);
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
  const std::string pk = record.primary_key();
  LsmTree* finder = pk_index_ ? pk_index_.get() : primary_.get();

  // Search the primary key index — never the full records (§5.2).
  LookupResult res;
  GetOptions gopts;
  gopts.use_blocked_bloom = options_.build_blocked_bloom;
  AUXLSM_RETURN_NOT_OK(finder->GetRaw(pk, &res, gopts));
  stats_.ingest_point_lookups++;
  const bool live = res.found && !res.entry.antimatter;
  if (is_delete && !live) return Status::OK();

  // The memory-component optimization applies as under Validation. Read the
  // old version before the first effect, so a bad record fails the op whole.
  OwnedEntry mem_old;
  TweetRecord old;
  const bool mem_hit = live && res.from_memtable &&
                       primary_->GetFromMem(pk, &mem_old).ok() &&
                       !mem_old.antimatter;
  if (mem_hit) {
    AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(mem_old.value, &old));
  }

  // Old version live in a *sealed* memtable: this write supersedes an entry
  // that is being flushed right now and will surface as valid in the new
  // component. Record it so the install-time bitmap fixup marks exactly
  // these entries (O(recorded deletes) instead of scanning the whole active
  // memtable under the exclusive latch). An old version in the *active*
  // memtable needs nothing — both versions flush together and reconcile —
  // and one on disk had its bit flipped directly below.
  if (live && res.from_sealed) {
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

  if (live && !res.from_memtable && res.component != nullptr &&
      res.component->bitmap() != nullptr) {
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

  // Anti-matter keeps LSM semantics intact and lets Validation-maintained
  // secondaries validate against recently ingested keys. Filters are
  // maintained on the new record only — the bitmap already reflects the old
  // record's deletion, so no widening is needed (§5.2).
  WriteVersion(record, mem_hit ? &old : nullptr, ts, txn, is_delete);
  return Status::OK();
}

Status Dataset::ApplyWrite(LogRecordType op, const TweetRecord& record,
                           Timestamp ts, Transaction* txn, bool* update_bit) {
  *update_bit = false;
  const bool is_delete = op == LogRecordType::kDelete;
  Status st;
  if (op == LogRecordType::kInsert) {
    // The key passed its uniqueness check (redo: the original op did), so
    // there is no version to replace.
    WriteVersion(record, nullptr, ts, txn, false);
  } else {
    switch (options_.strategy) {
      case MaintenanceStrategy::kEager:
        st = EagerUpsert(record, ts, txn, is_delete);
        break;
      case MaintenanceStrategy::kValidation:
        st = ValidationUpsert(record, ts, txn, is_delete);
        break;
      case MaintenanceStrategy::kMutableBitmap:
        st = MutableBitmapUpsert(record, ts, txn, is_delete, update_bit);
        break;
      case MaintenanceStrategy::kDeletedKeyBtree:
        st = DeletedKeyUpsert(record, ts, txn, is_delete);
        break;
    }
  }
  // The write's memtable effects are visible; invalidate under the shared
  // ingest latch so the cut cannot be reordered past a seal.
  if (st.ok()) InvalidateTupleCache(record, op);
  return st;
}

Status Dataset::IngestOp(LogRecordType op, const TweetRecord& record,
                         Transaction* txn, bool* inserted) {
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
  // after ApplyWrite's cut. The effect can be visible to a reader before the
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
  }
  bool update_bit = false;
  AUXLSM_RETURN_NOT_OK(ApplyWrite(op, record, ts, undo_txn, &update_bit));
  if (op == LogRecordType::kInsert) {
    if (inserted != nullptr) *inserted = true;
    stats_.inserts++;
  } else if (op == LogRecordType::kDelete) {
    stats_.deletes++;
  } else {
    stats_.upserts++;
  }

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

Status Dataset::ReplayOp(const LogRecord& r) {
  TweetRecord record;
  if (r.type == LogRecordType::kDelete) {
    record.id = DecodeU64(r.key);
  } else {
    AUXLSM_RETURN_NOT_OK(TweetRecord::Deserialize(r.value, &record));
  }
  // Replay runs single-threaded before the dataset is opened for traffic,
  // but the write path requires the shared ingest latch — acquiring it
  // here (uncontended, a few atomics) keeps its contract uniform instead
  // of punching a recovery-only hole through the annotations.
  ReadLatchGuard replay_latch(ingest_mu_);
  clock_.AdvanceTo(r.ts);
  bool update_bit = false;
  return ApplyWrite(r.type, record, r.ts, nullptr, &update_bit);
}

Status Dataset::ReplayBitmap(const LogRecord& r) {
  // The record's data already lives in disk components; re-mark the version
  // older than r.ts as deleted (its bitmap change may have been lost in the
  // crash — bitmaps are no-steal/no-force with checkpoints, §5.2).
  LsmTree* finder = pk_index_ ? pk_index_.get() : primary_.get();
  for (const auto& c : finder->Components()) {
    AUXLSM_ASSIGN_OR_RETURN(const bool marked, MarkSuperseded(*c, r.key, r.ts));
    if (marked) return Status::OK();
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
