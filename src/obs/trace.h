// Trace spans with dual clocks (PR 8).
//
// The interesting question about a maintenance cycle is usually *shape*,
// not totals: did the per-tree flush builds actually overlap, which queue
// did a merge charge, how long did writers stall behind a WAL group-commit
// sync? A Tracer records RAII TraceSpans into per-thread bounded ring
// buffers and exports Chrome trace-event JSON that Perfetto (or
// chrome://tracing) renders as a timeline: seal -> per-tree flush builds ->
// install -> per-tree merge jobs, with WAL syncs and per-queue IoEngine
// charges as nested/instant events.
//
// Every span carries TWO timelines:
//   - wall time: steady_clock microseconds since the tracer's epoch. This
//     is what the Chrome `ts`/`dur` fields use, so the timeline shows real
//     thread overlap.
//   - modeled time: the virtual DiskModel clock of the thread's bound
//     I/O queue (via the modeled-clock callback), stamped at span start and
//     end and exported in `args.modeled_*`. This is what the DIGEST lines
//     are made of, so a span can show "2 us of wall, 3400 us modeled".
//
// Ring semantics: `buffer_bytes` bounds EACH thread's ring (in whole
// events, minimum 16). When a ring is full the oldest event is overwritten
// and `dropped()` counts it — tracing a long run keeps the most recent
// window instead of failing or growing without bound. Recording takes a
// per-thread mutex that is uncontended except against a concurrent Drain().
//
// Armed-but-quiet: recording never charges modeled time; with
// DatasetOptions::trace_buffer_bytes == 0 no Tracer exists and every
// instrumentation site is a null-pointer branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace auxlsm {
namespace obs {

/// One recorded event. `name` is copied (bounded) so callers may pass
/// ephemeral strings like "flush_build(user_id)"; `cat` must be a string
/// literal.
struct TraceEvent {
  static constexpr size_t kNameCap = 48;

  char name[kNameCap] = {0};
  const char* cat = "";
  double wall_ts_us = 0;     ///< since tracer epoch
  double wall_dur_us = 0;    ///< 0 for instant events
  double modeled_ts_us = 0;  ///< bound-queue virtual clock at start
  double modeled_dur_us = 0;
  int32_t queue = -1;  ///< device queue, when meaningful
  uint32_t tid = 0;    ///< tracer-assigned sequential thread id
  bool instant = false;

  void SetName(const char* n) {
    std::strncpy(name, n, kNameCap - 1);
    name[kNameCap - 1] = '\0';
  }
};

class Tracer {
 public:
  /// `buffer_bytes` bounds each thread's ring buffer.
  explicit Tracer(size_t buffer_bytes);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Callback returning the recording thread's modeled virtual clock in
  /// microseconds (typically the bound IoEngine queue's simulated_us).
  /// May be empty; modeled stamps are then 0.
  void set_modeled_clock(std::function<double()> fn) { modeled_clock_ = std::move(fn); }

  double WallNowUs() const;
  double ModeledNowUs() const { return modeled_clock_ ? modeled_clock_() : 0.0; }

  /// Records a completed event. Fills ev.tid; everything else is the
  /// caller's. Lock-free against other threads, locks only its own ring.
  void Record(TraceEvent ev);

  /// Convenience: records an instant event with current stamps.
  void Instant(const char* name, const char* cat, int32_t queue = -1);

  /// Copies out all recorded events (oldest first per thread) and clears
  /// the rings. Thread ids identify the recording threads.
  std::vector<TraceEvent> Drain();

  /// Events overwritten because a ring was full (cumulative).
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  size_t events_per_thread() const { return capacity_events_; }

  /// Chrome trace-event JSON ({"traceEvents":[...]}), sorted by wall ts.
  /// Load in Perfetto (ui.perfetto.dev) or chrome://tracing.
  static std::string ToChromeJson(const std::vector<TraceEvent>& events);

 private:
  struct ThreadBuf {
    // Unranked: only the owning thread records into its ring; the mutex
    // exists solely to serialize against a concurrent Drain().
    Mutex mu;
    std::vector<TraceEvent> ring GUARDED_BY(mu);
    size_t next GUARDED_BY(mu) = 0;
    bool wrapped GUARDED_BY(mu) = false;
    // Written once under reg_mu_ before the buffer is published; read
    // lock-free by the owning thread afterwards.
    uint32_t tid = 0;
  };

  ThreadBuf* GetThreadBuf();

  const size_t capacity_events_;
  const uint64_t tracer_id_;

  std::function<double()> modeled_clock_;
  std::atomic<uint64_t> dropped_{0};

  // Unranked; Drain() nests each ThreadBuf::mu inside it (both unranked,
  // and nothing else is ever taken under either).
  Mutex reg_mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_ GUARDED_BY(reg_mu_);
  uint32_t next_tid_ GUARDED_BY(reg_mu_) = 1;

  int64_t epoch_ns_ = 0;
};

/// RAII span: stamps wall + modeled clocks at construction and records a
/// complete event at destruction. Null-tracer-safe (no-op).
class TraceSpan {
 public:
  TraceSpan(Tracer* t, const char* name, const char* cat, int32_t queue = -1)
      : t_(t) {
    if (!t_) return;
    ev_.SetName(name);
    ev_.cat = cat;
    ev_.queue = queue;
    ev_.wall_ts_us = t_->WallNowUs();
    ev_.modeled_ts_us = t_->ModeledNowUs();
  }
  ~TraceSpan() {
    if (!t_) return;
    ev_.wall_dur_us = t_->WallNowUs() - ev_.wall_ts_us;
    if (!modeled_overridden_) {
      ev_.modeled_dur_us = t_->ModeledNowUs() - ev_.modeled_ts_us;
    }
    t_->Record(ev_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Overrides the modeled stamps (e.g. WAL sync, whose modeled window is
  /// the log-device clock rather than the thread's storage queue).
  void SetModeled(double start_us, double end_us) {
    if (!t_) return;
    ev_.modeled_ts_us = start_us;
    ev_.modeled_dur_us = end_us - start_us;
    modeled_overridden_ = true;
  }
  void set_queue(int32_t q) { ev_.queue = q; }

 private:
  friend class Tracer;
  Tracer* t_;
  TraceEvent ev_;
  bool modeled_overridden_ = false;
};

}  // namespace obs
}  // namespace auxlsm
