#include "txn/wal.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace auxlsm {

void Wal::set_group_commit(bool on) {
  MutexLock l(mu_);
  group_commit_ = on;
}

void Wal::set_fault_injector(FaultInjector* fault) {
  MutexLock l(mu_);
  fault_ = fault;
}

void Wal::set_metrics(obs::MetricsRegistry* metrics) {
  MutexLock l(mu_);
  commit_hist_ =
      metrics == nullptr ? nullptr : metrics->histogram("wal.commit_modeled_ns");
}

void Wal::set_tracer(obs::Tracer* tracer) {
  MutexLock l(mu_);
  tracer_ = tracer;
}

Wal::Backlog Wal::backlog() const {
  MutexLock l(mu_);
  Backlog b;
  b.commit_waiters = commit_waiters_;
  const Lsn tail = next_lsn_ - 1;
  b.unsynced_records = tail > durable_lsn_ ? tail - durable_lsn_ : 0;
  b.tail_bytes = bytes_since_page_;
  b.sync_in_progress = sync_in_progress_;
  return b;
}

Lsn Wal::AppendLocked(LogRecord record) {
  record.lsn = next_lsn_++;
  // Charge sequential log I/O one page at a time as bytes accumulate; full
  // pages stream out on the appending thread's log-device queue. The log
  // keeps LogRecord objects, so only the encoded size is needed here.
  bytes_since_page_ += record.EncodedSize();
  while (bytes_since_page_ >= log_page_bytes_) {
    io_.ChargeWrite(1);
    bytes_since_page_ -= log_page_bytes_;
  }
  tail_dirty_ = true;
  wstats_.records++;
  const Lsn lsn = record.lsn;
  records_.push_back(std::move(record));
  return lsn;
}

Lsn Wal::Append(LogRecord record) {
  MutexLock l(mu_);
  if (fault_ != nullptr && fault_->HitParked(failpoints::kWalAppend, &io_)) {
    return kInvalidLsn;  // record dropped; Status parked for TakePending
  }
  return AppendLocked(std::move(record));
}

Lsn Wal::AppendCommit(LogRecord record) {
  // The leader protocol cycles the mutex mid-function (the commit window's
  // yield below), which no scoped guard can express — explicit annotated
  // lock()/unlock() calls keep the static analysis tracking every path.
  mu_.lock();
  if (fault_ != nullptr && fault_->HitParked(failpoints::kWalAppend, &io_)) {
    mu_.unlock();
    return kInvalidLsn;  // commit record dropped — the txn must roll back
  }
  const Lsn lsn = AppendLocked(std::move(record));
  wstats_.commits++;
  if (!group_commit_) {
    // Legacy serial path: identical to Append (no modeled sync).
    durable_lsn_ = lsn;
    mu_.unlock();
    return lsn;
  }
  // The commit's modeled latency runs from here (log-device virtual time at
  // append) to its batch's sync completion.
  const double enter_us = io_.critical_path_us();
  ++commit_waiters_;
  bool led = false;
  while (durable_lsn_ < lsn) {
    if (sync_in_progress_) {
      cv_.Wait(mu_);
      continue;
    }
    // Become the leader: open a short commit window so concurrent commits
    // can append into the batch, then sync everything with one flush. The
    // sync is charged to the leader's bound log-device queue, so batches led
    // from different queues overlap in modeled time.
    led = true;
    sync_in_progress_ = true;
    mu_.unlock();
    std::this_thread::yield();
    mu_.lock();
    if (tail_dirty_) {
      // The modeled fsync of the partial tail page, charged to the leader's
      // bound log queue. The durable point is read from the device's
      // completed-time clock (critical path) rather than the sync ticket:
      // enter_us below uses the same clock, so the two endpoints of a
      // commit's latency are always comparable even when appends, syncs,
      // and leaders land on different queues (per-queue clocks are not
      // mutually ordered; the critical path is monotone under mu_).
      // An injected wal.sync failure skips the flush charge; the records
      // themselves already sit in the modeled log, so nothing is lost —
      // the fire is visible in the injector's stats and commit latency.
      if (fault_ == nullptr ||
          !fault_->HitCharge(failpoints::kWalSync, &io_)) {
        const double sync_wall0 = tracer_ != nullptr ? tracer_->WallNowUs() : 0;
        const double sync_modeled0 = io_.critical_path_us();
        io_.Submit(IoRequest::Write(1));
        durable_point_us_ =
            std::max(durable_point_us_, io_.critical_path_us());
        if (tracer_ != nullptr) {
          obs::TraceEvent ev;
          ev.SetName("wal.sync");
          ev.cat = "wal";
          ev.queue = int32_t(io_.BoundQueue());
          ev.wall_ts_us = sync_wall0;
          ev.wall_dur_us = tracer_->WallNowUs() - sync_wall0;
          ev.modeled_ts_us = sync_modeled0;
          ev.modeled_dur_us = durable_point_us_ - sync_modeled0;
          tracer_->Record(ev);
        }
      }
      tail_dirty_ = false;
    }
    durable_lsn_ = next_lsn_ - 1;
    wstats_.syncs++;
    sync_in_progress_ = false;
    cv_.NotifyAll();
  }
  if (!led) wstats_.batched_commits++;
  // Non-negative by monotonicity whenever our batch synced after we entered;
  // the clamp covers the already-durable case (tail was clean), where the
  // commit genuinely waited on nothing.
  const double latency_us = std::max(0.0, durable_point_us_ - enter_us);
  wstats_.commit_latency_us_total += latency_us;
  wstats_.commit_latency_us_max =
      std::max(wstats_.commit_latency_us_max, latency_us);
  --commit_waiters_;
  obs::Histogram* hist = commit_hist_;
  mu_.unlock();
  // Histogram recording is internally synchronized; keep it outside the
  // commit window so observability never extends it.
  if (hist != nullptr) {
    hist->Record(uint64_t(std::llround(latency_us * 1000.0)));
  }
  return lsn;
}

Lsn Wal::tail_lsn() const {
  MutexLock l(mu_);
  return records_.empty() ? kInvalidLsn : records_.back().lsn;
}

std::vector<LogRecord> Wal::ReadFrom(Lsn after) const {
  MutexLock l(mu_);
  std::vector<LogRecord> out;
  for (const auto& r : records_) {
    if (r.lsn > after) out.push_back(r);
  }
  return out;
}

void Wal::TruncateUpTo(Lsn up_to) {
  MutexLock l(mu_);
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [&](const LogRecord& r) {
                                  return r.lsn <= up_to;
                                }),
                 records_.end());
}

WalStats Wal::wal_stats() const {
  MutexLock l(mu_);
  return wstats_;
}

size_t Wal::num_records() const {
  MutexLock l(mu_);
  return records_.size();
}

}  // namespace auxlsm
