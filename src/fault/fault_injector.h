// Deterministic fault injection for the modeled storage stack.
//
// A FaultInjector is a seeded registry of named failpoint *sites* threaded
// through every seam where the engine touches modeled storage: Env page
// append/read/delete, BufferCache miss fills, IoEngine submissions, WAL
// append/sync, and the maintenance pipeline's build/install/merge steps
// (including the per-tree merge jobs). Tests arm a site with a FaultSpec
// — probability, every-Nth, or one-shot triggers; error / modeled-clock
// delay / crash actions — and the instrumented call sites consult the
// injector at runtime.
//
// Parity contract: a null injector (the default everywhere) is a single
// branch per site; an armed injector that never fires changes no behavior
// and charges no modeled time. The CI bench DIGEST lines pin this.
//
// Crash semantics: a kCrash fire marks the injector crashed. From then on
// every Status-channel site fails with Aborted (permanent — retry policies
// give up immediately), the WAL drops appends (the log ends at the crash
// point), and I/O submissions are discarded. The test then abandons the
// Dataset object, keeps the Env + WAL + catalog — exactly the crash model
// the recovery tests use — calls ResetCrash()/DisarmAll(), and recovers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace auxlsm {

class IoEngine;

/// Registered failpoint site names. Sites are plain strings so subsystems
/// don't need a shared enum; these constants are the canonical registry.
namespace failpoints {
inline constexpr const char* kEnvAppendPage = "env.append_page";
inline constexpr const char* kEnvReadPage = "env.read_page";
inline constexpr const char* kEnvDeleteFile = "env.delete_file";
inline constexpr const char* kCacheMissFill = "cache.miss_fill";
inline constexpr const char* kIoSubmit = "io.submit";
inline constexpr const char* kWalAppend = "wal.append";
inline constexpr const char* kWalSync = "wal.sync";
inline constexpr const char* kFlushBuild = "maintenance.flush_build";
inline constexpr const char* kInstall = "maintenance.install";
inline constexpr const char* kMerge = "maintenance.merge";
inline constexpr const char* kMergeJob = "maintenance.merge_job";
inline constexpr const char* kConcurrentBuild = "maintenance.concurrent_build";
/// Tuple-cache seams (cache/tuple_cache.h, PR 7). A fired insert fault
/// drops the admission (the next read is a plain miss); a fired invalidate
/// fault makes the precise cut degrade to clearing the whole cache —
/// degraded invalidation must never leave a stale tuple servable.
inline constexpr const char* kCacheTupleInsert = "cache.tuple_insert";
inline constexpr const char* kCacheTupleInvalidate = "cache.tuple_invalidate";
/// Service-layer seams (server/, PR 9). A fired decode fault drops the
/// frame before dispatch (the client sees a per-request error response,
/// retryable when the injected Status is); a fired dispatch fault fails
/// the request before any dataset effect. Neither can leave partial
/// state — the fault matrix's error-atomicity contract extends to the
/// wire: a request answered with an error has no surviving effect.
inline constexpr const char* kServerDecodeFrame = "server.decode_frame";
inline constexpr const char* kServerDispatch = "server.dispatch";

/// Every registered site, for matrix-style test iteration.
std::vector<const char*> AllSites();
}  // namespace failpoints

/// What an armed site does when its trigger fires.
struct FaultSpec {
  enum class Action {
    kError,  ///< return / park the configured Status
    kDelay,  ///< charge delay_us to the site's modeled device clock
    kCrash,  ///< mark the injector crashed (see crash semantics above)
  };

  Action action = Action::kError;
  Status error = Status::IOError("injected fault");
  /// Trigger: when every_nth > 0 the site fires on its every_nth-th hit
  /// (and each multiple thereafter unless one_shot); otherwise each hit
  /// fires independently with `probability`.
  double probability = 1.0;
  uint64_t every_nth = 0;
  bool one_shot = false;  ///< disarm the site after its first fire
  double delay_us = 0;    ///< kDelay only

  static FaultSpec Error(Status s, double p = 1.0) {
    FaultSpec f;
    f.error = std::move(s);
    f.probability = p;
    return f;
  }
  static FaultSpec ErrorNth(Status s, uint64_t nth, bool once = true) {
    FaultSpec f;
    f.error = std::move(s);
    f.every_nth = nth;
    f.one_shot = once;
    return f;
  }
  static FaultSpec Delay(double us, double p = 1.0) {
    FaultSpec f;
    f.action = Action::kDelay;
    f.delay_us = us;
    f.probability = p;
    return f;
  }
  static FaultSpec CrashNth(uint64_t nth) {
    FaultSpec f;
    f.action = Action::kCrash;
    f.every_nth = nth;
    f.one_shot = true;
    return f;
  }
};

struct FaultSiteStats {
  uint64_t hits = 0;   ///< instrumented calls while the site was armed
  uint64_t fires = 0;  ///< hits whose trigger fired
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 42) : rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void Arm(const std::string& site, FaultSpec spec);
  void Disarm(const std::string& site);
  void DisarmAll();

  /// Status-channel sites (Env, BufferCache, maintenance steps). Returns
  /// the injected error / Aborted-after-crash, or OK when nothing fires.
  /// `io` receives the kDelay charge (null = delay is a no-op).
  Status Hit(const std::string& site, IoEngine* io = nullptr);

  /// Charge-only sites with no Status channel (IoEngine::Submit): a kError
  /// fire silently discards the submission, kCrash additionally marks the
  /// crash. Returns true when the submission should be dropped.
  bool HitCharge(const std::string& site, IoEngine* io = nullptr);

  /// No-Status sites whose failures must surface later (WAL append/sync):
  /// like HitCharge, but a kError/kCrash fire also parks the Status for
  /// TakePending(). Returns true when the record/sync should be dropped.
  bool HitParked(const std::string& site, IoEngine* io = nullptr);

  /// Fetches-and-clears the Status parked by the last HitParked fire.
  Status TakePending();

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  /// Clears the crash flag and any parked Status (recovery begins).
  void ResetCrash();

  FaultSiteStats site_stats(const std::string& site) const;
  uint64_t TotalFires() const;

 private:
  /// Evaluates a hit under mu_. Fills *fired and the action taken; returns
  /// the Status for Status-channel callers.
  Status HitLocked(const std::string& site, IoEngine* io, bool parked,
                   bool* fired) REQUIRES(mu_);

  // Unranked on purpose: instrumented sites hit the injector while holding
  // whichever subsystem lock guards the seam (wal.mu, a cache shard, ...),
  // so a fixed rank could not be both above and below them.
  mutable Mutex mu_;
  Random rng_ GUARDED_BY(mu_);
  struct ArmedSite {
    FaultSpec spec;
    uint64_t hit_count = 0;  ///< trigger counter for every_nth
  };
  std::unordered_map<std::string, ArmedSite> armed_ GUARDED_BY(mu_);
  std::unordered_map<std::string, FaultSiteStats> stats_ GUARDED_BY(mu_);
  Status pending_ GUARDED_BY(mu_);
  std::atomic<bool> crashed_{false};
};

}  // namespace auxlsm
