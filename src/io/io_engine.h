// Multi-queue simulated I/O engine.
//
// The legacy DiskModel charges every page access of an Env to a single disk
// head, so concurrent maintenance (parallel flushes, per-tree merges,
// group-commit syncs) could only shorten wall-clock time — simulated disk
// seconds were structurally blind to parallelism. The IoEngine replaces that
// with a device-level request scheduler:
//
//   - It owns N independent queues (DeviceProfile::queues). Each queue is a
//     full DiskModel: its own head position, its own sequential/random
//     classification, and its own virtual-time clock. Requests charged to
//     different queues overlap in modeled time; requests on one queue
//     serialize against that queue's head, exactly as before.
//   - Submit(IoRequest) -> IoTicket prices the request on its queue's clock
//     and returns a ticket carrying the completion virtual time; Wait(ticket)
//     returns it. (Simulated devices complete instantly in wall time — the
//     split exists so call sites read like an async submission API and so a
//     caller can observe per-request completion times, e.g. the WAL's
//     per-commit latency accounting.)
//   - Threads map to queues with IoQueueScope (RAII). The maintenance
//     scheduler binds each fanned-out task to queue (task_index % queues), so
//     affinity is deterministic: the same trace with the same affinity always
//     produces the same per-queue clocks regardless of host thread
//     interleaving across queues. An unbound thread charges queue 0.
//   - stats() aggregates over queues: counters and simulated_us sum (total
//     device work), while critical_path_us is the max over queue clocks (the
//     completed simulated time of the device). With queues == 1 the two are
//     equal and every charge goes through one DiskModel — bit-for-bit the
//     legacy behavior.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stat_counter.h"
#include "env/disk_model.h"
#include "io/device_profile.h"

namespace auxlsm {

class FaultInjector;

namespace obs {
class MetricsRegistry;
class Histogram;
class Tracer;
}  // namespace obs

/// One simulated device request. Reads address a (file, page) pair so the
/// queue's head can classify them sequential vs. random; writes are
/// append-streams of n_pages at sequential cost.
struct IoRequest {
  enum class Op { kRead, kWrite };
  Op op = Op::kRead;
  uint32_t file_id = 0;   ///< reads
  uint32_t page_no = 0;   ///< reads
  uint64_t n_pages = 1;   ///< writes
  /// Target queue; kAnyQueue charges the calling thread's bound queue.
  static constexpr int32_t kAnyQueue = -1;
  int32_t queue = kAnyQueue;

  static IoRequest Read(uint32_t file_id, uint32_t page_no) {
    IoRequest r;
    r.op = Op::kRead;
    r.file_id = file_id;
    r.page_no = page_no;
    return r;
  }
  static IoRequest Write(uint64_t n_pages) {
    IoRequest r;
    r.op = Op::kWrite;
    r.n_pages = n_pages;
    return r;
  }
};

/// Completion handle of a submitted request: which queue served it and that
/// queue's virtual clock after it completed.
struct IoTicket {
  uint32_t queue = 0;
  double complete_us = 0;
};

class IoEngine {
 public:
  explicit IoEngine(DeviceProfile profile);

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  uint32_t num_queues() const { return uint32_t(queues_.size()); }
  const DeviceProfile& profile() const { return profile_; }

  /// Prices the request on its queue's virtual clock (the thread-bound queue
  /// when req.queue is kAnyQueue) and returns the completion ticket.
  IoTicket Submit(const IoRequest& req);

  /// Returns the request's completion virtual time. A real engine would
  /// block here; the simulated device completes at submit.
  double Wait(const IoTicket& ticket) const { return ticket.complete_us; }

  // --- Synchronous conveniences (the Env / BufferCache charging surface) ----
  void ChargeRead(uint32_t file_id, uint32_t page_no) {
    Submit(IoRequest::Read(file_id, page_no));
  }
  void ChargeWrite(uint64_t n_pages) { Submit(IoRequest::Write(n_pages)); }
  void OnCacheHit();
  void OnCacheMiss();

  /// Advances the calling thread's bound queue clock by a flat `us` without
  /// moving its head (injected device stalls); returns the post-charge
  /// clock. This is the modeled-clock sink for FaultSpec::Action::kDelay.
  double ChargeDelay(double us);

  /// Failpoint hook (fault/fault_injector.h). A null injector (default) is
  /// a single branch in Submit; an injector that fires an error discards
  /// the submission (the engine has no Status channel — see
  /// FaultInjector::HitCharge).
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  /// Observability hooks (obs/metrics.h, obs/trace.h). Attach before the
  /// engine sees concurrent traffic; the registry/tracer must outlive the
  /// engine (or be detached with null first). `prefix` namespaces the
  /// metric names — "io.storage" and "io.log" for the two engines of a
  /// Dataset — registering `<prefix>.requests`, `<prefix>.q<i>.requests`
  /// per queue, and the `<prefix>.request_modeled_ns` cost histogram.
  /// Recording never charges modeled time (armed-but-quiet contract).
  void set_metrics(obs::MetricsRegistry* metrics, const std::string& prefix);
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// The calling thread's bound queue clock (simulated_us) — the modeled
  /// timeline trace spans stamp.
  double BoundQueueClock() const;

  /// Forgets head positions resting on file_id, on every queue. Called when
  /// a retired component's file is deleted (merge and repair paths) so no
  /// queue keeps a stale head on a dead file.
  void ForgetFile(uint32_t file_id);

  /// Files some queue's head currently rests on (deduplicated, for the
  /// no-stale-head leak assertions in env_test).
  std::vector<uint32_t> HeadFiles() const;

  /// The calling thread's bound queue for this engine (0 when unbound).
  uint32_t BoundQueue() const;

  /// Aggregate over queues: counters and simulated_us sum; critical_path_us
  /// is the max over queue clocks.
  IoStats stats() const;
  /// One queue's accounting (its critical_path_us equals its simulated_us).
  IoStats queue_stats(uint32_t queue) const;
  /// Shorthand for stats().critical_path_us.
  double critical_path_us() const;
  /// Every queue's virtual clock. Interval measurements must diff these
  /// per queue and take the max of the deltas — the difference of two
  /// critical_path_us snapshots is NOT the interval's critical path when
  /// the interval's work lands on a queue other than the leading one.
  std::vector<double> QueueClocks() const;

 private:
  friend class IoQueueScope;
  friend class MaybeIoQueueScope;
  /// Per-thread binding stack; engine-keyed so one thread can hold bindings
  /// on several engines (storage + log) at once.
  static std::vector<std::pair<const IoEngine*, uint32_t>>& TlsBindings();

  /// Resolves a request's target queue index: explicit queue id wins,
  /// kAnyQueue takes the thread binding; out-of-range ids wrap.
  uint32_t ResolveQueue(int32_t requested) const;

  /// Slow path of Submit's observability tail: counts the request and
  /// records its modeled cost into the histogram / trace ring.
  void ObserveSubmit(const IoRequest& req, const IoTicket& ticket,
                     double before_us);

  DeviceProfile profile_;
  std::vector<std::unique_ptr<DiskModel>> queues_;
  FaultInjector* fault_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  StatCounter* req_counter_ = nullptr;            ///< <prefix>.requests
  std::vector<StatCounter*> queue_req_counters_;  ///< <prefix>.q<i>.requests
  obs::Histogram* req_hist_ = nullptr;            ///< <prefix>.request_modeled_ns
};

/// RAII thread->queue binding. While alive, the constructing thread's
/// kAnyQueue submissions to `engine` are charged to `queue % num_queues`.
/// Scopes nest (innermost wins); a null engine makes the scope a no-op.
class IoQueueScope {
 public:
  IoQueueScope(IoEngine* engine, uint32_t queue);
  ~IoQueueScope();

  IoQueueScope(const IoQueueScope&) = delete;
  IoQueueScope& operator=(const IoQueueScope&) = delete;

 private:
  IoEngine* engine_;
};

/// Conditional binding: binds like IoQueueScope when queue >= 0 and leaves
/// the thread's current binding untouched when queue is negative. This is
/// the read path's queue selector — ReadOptions::io_queue defaults to -1
/// ("charge wherever the calling thread is bound"), and a reader pool binds
/// reader i to queue i % Q by passing explicit ids.
class MaybeIoQueueScope {
 public:
  MaybeIoQueueScope(IoEngine* engine, int32_t queue);
  ~MaybeIoQueueScope();

  MaybeIoQueueScope(const MaybeIoQueueScope&) = delete;
  MaybeIoQueueScope& operator=(const MaybeIoQueueScope&) = delete;

 private:
  IoEngine* engine_;  ///< null when no binding was pushed
};

}  // namespace auxlsm
