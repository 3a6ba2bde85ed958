// Fault-injection matrix (PR 6): every registered failpoint site is armed —
// with an injected error and with a crash — under every maintenance
// strategy, while a chaos-style workload runs against an in-memory
// reference model. The invariant under test is "error <=> op excluded from
// the model": an operation that returned a Status error must have no
// surviving effect (rolled back / dropped from the WAL), and an operation
// that returned OK must survive checkpoint + crash + recovery bit-for-bit.
// Around the matrix sit the robustness state-machine tests: transient
// faults self-heal inside the retry budget, retry exhaustion degrades the
// dataset to read-only until TakeBackgroundError() clears it, delays charge
// the modeled clock, and an armed injector that never fires changes nothing.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/dataset.h"
#include "core/mutable_bitmap_build.h"

namespace auxlsm {
namespace {

constexpr uint64_t kKeySpace = 600;
constexpr uint64_t kUserSpace = 40;

EnvOptions TestEnv(FaultInjector* fault) {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 14;
  o.disk_profile = DiskProfile::Null();
  o.fault_injector = fault;
  return o;
}

DatasetOptions Opts(MaintenanceStrategy s, FaultInjector* fault) {
  DatasetOptions o;
  o.strategy = s;
  o.mem_budget_bytes = 48 << 10;  // frequent flushes and merges
  o.max_mergeable_bytes = 1 << 20;
  if (s == MaintenanceStrategy::kValidation) o.merge_repair = true;
  o.fault_injector = fault;
  o.maintenance_retry_limit = 2;
  o.retry_backoff_us = 10;
  // The matrix runs with the tuple cache on so the cache.tuple_* sites are
  // genuinely consulted; a faulted cache must degrade to misses, never
  // change any query outcome.
  o.tuple_cache_bytes = 256 << 10;
  return o;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "GA";
  r.creation_time = time;
  r.message = std::string(40 + id % 30, 'z');
  return r;
}

// Post-recovery validation: record count, sampled point queries, and one
// secondary range query against the committed-ops model.
void ValidateRecovered(Dataset* ds,
                       const std::map<uint64_t, TweetRecord>& model,
                       const std::string& trace) {
  ASSERT_EQ(ds->num_records(), model.size()) << trace;
  for (uint64_t id = 1; id <= kKeySpace; id += 7) {
    TweetRecord got;
    const Status st = ds->GetById(id, &got);
    auto it = model.find(id);
    if (it != model.end()) {
      ASSERT_TRUE(st.ok()) << trace << " id " << id << ": " << st.ToString();
      EXPECT_EQ(got.user_id, it->second.user_id) << trace << " id " << id;
      EXPECT_EQ(got.creation_time, it->second.creation_time)
          << trace << " id " << id;
    } else {
      EXPECT_TRUE(st.IsNotFound()) << trace << " id " << id;
    }
  }
  std::set<uint64_t> expected;
  for (const auto& [id, r] : model) {
    if (r.user_id <= 4) expected.insert(id);
  }
  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds->QueryUserRange(0, 4, q, &res).ok()) << trace;
  std::set<uint64_t> got;
  for (const auto& r : res.records) got.insert(r.id);
  EXPECT_EQ(got, expected) << trace;
  // The time-range scan: under Mutable-bitmap the §5 per-component path,
  // which trusts the bitmaps instead of reconciling versions.
  ScanResult scan;
  ASSERT_TRUE(ds->ScanTimeRange(0, UINT64_MAX, &scan).ok()) << trace;
  EXPECT_EQ(scan.records_matched, model.size()) << trace;
}

class FaultMatrixTest : public ::testing::TestWithParam<MaintenanceStrategy> {
 protected:
  // One matrix cell: warm up un-faulted, arm `site` with `spec`, run a
  // chaos workload tolerating injected errors (every errored op is excluded
  // from the model), then crash-recover and validate the committed state.
  void RunCase(const char* site, const FaultSpec& spec) {
    const std::string trace =
        std::string("site=") + site + " strategy=" +
        StrategyName(GetParam());
    SCOPED_TRACE(trace);
    const uint64_t salt = std::hash<std::string>{}(site) % 1000;
    FaultInjector fault(7 + salt);
    Env env(TestEnv(&fault));
    Wal durable_wal;
    std::map<uint64_t, TweetRecord> model;
    Random rng(1234 + salt);
    uint64_t time = 0;
    DatasetCatalog catalog;
    {
      Dataset ds(&env, Opts(GetParam(), &fault));
      // Warm up with the injector quiet so disk components (and bitmaps /
      // deleted-key trees) exist before the site arms.
      for (int step = 0; step < 250; step++) {
        const uint64_t id = 1 + rng.Uniform(kKeySpace);
        const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
        ASSERT_TRUE(ds.Upsert(r).ok());
        model[id] = r;
      }
      ASSERT_TRUE(ds.FlushAll().ok());

      fault.Arm(site, spec);
      for (int step = 0; step < 450 && !fault.crashed(); step++) {
        const uint64_t id = 1 + rng.Uniform(kKeySpace);
        const double dice = rng.NextDouble();
        Status st;
        if (dice < 0.60) {
          const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
          st = ds.Upsert(r);
          if (st.ok()) model[id] = r;
        } else if (dice < 0.80) {
          st = ds.Delete(id);
          if (st.ok()) model.erase(id);
        } else if (dice < 0.88) {
          bool inserted = false;
          const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
          st = ds.Insert(r, &inserted);
          if (st.ok() && inserted) model[id] = r;
        } else if (dice < 0.94) {
          // Reads interleaved with the faulted writes: a fired cache site
          // must degrade to a miss — never to a stale or ghost row.
          TweetRecord got;
          const Status rst = ds.GetById(id, &got);
          auto it = model.find(id);
          if (rst.ok() && it != model.end()) {
            EXPECT_EQ(got.user_id, it->second.user_id) << trace;
            EXPECT_EQ(got.creation_time, it->second.creation_time) << trace;
          } else if (rst.ok()) {
            ADD_FAILURE() << trace << ": ghost row for id " << id;
          } else if (rst.IsNotFound()) {
            EXPECT_TRUE(it == model.end()) << trace << " id " << id;
          }  // injected read errors are tolerated like any faulted op
        } else if (dice < 0.97) {
          // Maintenance calls may fail under injection; a failed flush or
          // merge never changes query-visible state.
          st = ds.FlushAll();
        } else {
          st = ds.MergeAllIndexes();
        }
        if (!st.ok()) {
          // Re-arm the pipeline: both sticky error classes (flush-cycle and
          // merge-queue) may be set after a degraded transition.
          ds.TakeBackgroundError();
          ds.TakeBackgroundError();
        }
      }

      // Crash point. The injector stops injecting (recovery begins); the
      // catalog models per-component metadata a real system keeps durable
      // as flushes/merges happen, and the WAL content as of the crash is
      // copied to the stand-in durable log device.
      fault.ResetCrash();
      fault.DisarmAll();
      catalog = ds.Checkpoint();
      for (const auto& r : ds.wal()->ReadFrom(kInvalidLsn)) {
        durable_wal.Append(r);
      }
    }

    RecoveryStats stats;
    auto recovered = Dataset::Recover(&env, &durable_wal, catalog,
                                      Opts(GetParam(), &fault), &stats);
    ASSERT_TRUE(recovered.ok()) << trace << ": "
                                << recovered.status().ToString();
    Dataset* ds = recovered->get();
    ValidateRecovered(ds, model, trace);

    // The recovered dataset must be fully usable: ingest, flush, read.
    EXPECT_EQ(ds->health(), DatasetHealth::kHealthy) << trace;
    for (int i = 0; i < 40; i++) {
      const uint64_t id = 1 + rng.Uniform(kKeySpace);
      const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
      ASSERT_TRUE(ds->Upsert(r).ok()) << trace;
      model[id] = r;
    }
    ASSERT_TRUE(ds->FlushAll().ok()) << trace;
    ASSERT_EQ(ds->num_records(), model.size()) << trace;
  }
};

// An injected transient error at every site: op-level sites surface the
// error to the caller (op excluded from the model), maintenance sites are
// absorbed by the retry policy. Either way, recovery restores exactly the
// committed state.
TEST_P(FaultMatrixTest, InjectedErrorAtEverySiteRecoversCommittedState) {
  for (const char* site : failpoints::AllSites()) {
    RunCase(site, FaultSpec::ErrorNth(Status::IOError("injected io error"), 3));
    if (HasFatalFailure()) return;
  }
}

// A crash at every site: from the crash point on, appends drop and every
// storage touch fails; recovery from the surviving WAL + catalog must
// restore exactly the committed state.
TEST_P(FaultMatrixTest, CrashAtEverySiteRecoversCommittedState) {
  for (const char* site : failpoints::AllSites()) {
    RunCase(site, FaultSpec::CrashNth(5));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, FaultMatrixTest,
    ::testing::Values(MaintenanceStrategy::kEager,
                      MaintenanceStrategy::kValidation,
                      MaintenanceStrategy::kMutableBitmap,
                      MaintenanceStrategy::kDeletedKeyBtree),
    [](const ::testing::TestParamInfo<MaintenanceStrategy>& info) {
      std::string name = StrategyName(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// A low-rate transient write fault on the page-append seam: every failure
// lands inside a retry-wrapped maintenance step, so with an adequate retry
// budget NO error ever surfaces to the workload and the dataset stays
// healthy. The MaintenanceStats counters must show the absorbed failures.
// Runs on the serial merge path (1 thread) and the fanned-out one (4), so
// both are covered whatever the host's core count.
class FaultSelfHealingTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FaultSelfHealingTest, TransientWriteFaultsAbsorbedByRetries) {
  FaultInjector fault(99);
  Env env(TestEnv(&fault));
  DatasetOptions o = Opts(MaintenanceStrategy::kEager, &fault);
  o.maintenance_retry_limit = 6;
  o.maintenance_threads = GetParam();
  Dataset ds(&env, o);
  std::map<uint64_t, TweetRecord> model;
  Random rng(4040);
  uint64_t time = 0;

  fault.Arm(failpoints::kEnvAppendPage,
            FaultSpec::Error(Status::IOError("transient write fault"), 0.01));
  for (int step = 0; step < 1500; step++) {
    const uint64_t id = 1 + rng.Uniform(kKeySpace);
    if (rng.Bernoulli(0.8)) {
      const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
      ASSERT_TRUE(ds.Upsert(r).ok()) << "step " << step;
      model[id] = r;
    } else {
      ASSERT_TRUE(ds.Delete(id).ok()) << "step " << step;
      model.erase(id);
    }
  }
  fault.DisarmAll();
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_EQ(ds.health(), DatasetHealth::kHealthy);

  const FaultSiteStats ss = fault.site_stats(failpoints::kEnvAppendPage);
  EXPECT_GT(ss.hits, 0u);
  EXPECT_GT(ss.fires, 0u) << "fault rate too low to exercise the retry path";
  const MaintenanceStats& ms = ds.maintenance_stats();
  EXPECT_GE(ms.transient_failures.load(), ss.fires ? 1u : 0u);
  EXPECT_GE(ms.retries_succeeded.load(), 1u);
  EXPECT_EQ(ms.rounds_abandoned.load(), 0u);
  EXPECT_EQ(ms.degraded_transitions.load(), 0u);

  ValidateRecovered(&ds, model, "self-healing");
}

INSTANTIATE_TEST_SUITE_P(MaintenanceThreads, FaultSelfHealingTest,
                         ::testing::Values(size_t{1}, size_t{4}));

// Retry-budget exhaustion: a persistent transient fault on flush builds
// degrades the dataset to read-only. Ingest fails fast with the sticky
// error, reads keep serving, and clearing the error via
// TakeBackgroundError() re-arms the pipeline — including re-flushing the
// sealed memtables the failed builds left behind.
TEST(DegradedModeTest, RetryExhaustionDegradesThenClears) {
  FaultInjector fault(3);
  Env env(TestEnv(&fault));
  DatasetOptions o = Opts(MaintenanceStrategy::kEager, &fault);
  o.mem_budget_bytes = 8 << 10;
  o.maintenance_retry_limit = 2;
  Dataset ds(&env, o);
  uint64_t time = 0;
  for (uint64_t id = 1; id <= 60; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 5, ++time)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  fault.Arm(failpoints::kFlushBuild,
            FaultSpec::Error(Status::IOError("disk down"), 1.0));
  // Ingest until the budget-triggered inline flush exhausts its retries:
  // the triggering op has already committed (it returns OK; the flush
  // failure marks the dataset degraded), the NEXT op fails fast before any
  // effect.
  Status failed;
  uint64_t last_committed = 0;
  for (uint64_t id = 100; id < 600; id++) {
    const Status st = ds.Upsert(MakeTweet(id, 1, ++time));
    if (!st.ok()) {
      failed = st;
      break;
    }
    last_committed = id;
  }
  ASSERT_FALSE(failed.ok()) << "flush faults never surfaced";
  EXPECT_EQ(ds.health(), DatasetHealth::kDegraded);

  // Read-only degraded mode: reads serve, writes fail fast with the cause.
  TweetRecord got;
  EXPECT_TRUE(ds.GetById(1, &got).ok());
  EXPECT_TRUE(ds.GetById(last_committed, &got).ok());
  EXPECT_FALSE(ds.Upsert(MakeTweet(700, 1, ++time)).ok());

  const MaintenanceStats& ms = ds.maintenance_stats();
  EXPECT_GE(ms.transient_failures.load(), 1u);
  EXPECT_GE(ms.retries_attempted.load(), 1u);
  EXPECT_GE(ms.rounds_abandoned.load(), 1u);
  EXPECT_GE(ms.degraded_transitions.load(), 1u);

  // Operator intervention: fix the "disk", take the sticky error(s).
  fault.DisarmAll();
  EXPECT_FALSE(ds.TakeBackgroundError().ok());
  ds.TakeBackgroundError();  // second class (merge queue), if any
  EXPECT_EQ(ds.health(), DatasetHealth::kHealthy);

  // The pipeline re-arms, and the sealed memtables stranded by the failed
  // builds are re-collected by the next flush — no committed data lost.
  ASSERT_TRUE(ds.Upsert(MakeTweet(701, 2, ++time)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_TRUE(ds.GetById(701, &got).ok());
  EXPECT_TRUE(ds.GetById(last_committed, &got).ok());
  EXPECT_TRUE(ds.GetById(100, &got).ok());
}

// The error-atomicity contract on the writer pipeline: a failed background
// cycle must never fail an op that already committed. A writer that reaches
// the 2x-budget wait while the cycle burns its retry budget used to return
// the cycle's error although its own upsert had committed. Now ops keep
// committing (and returning OK) until the cycle fails; the first op to
// return an error is the one after the dataset degraded, and it has no
// effect. Runs on the coupled cycle (depth 0) and the merge queues (2).
class PipelineErrorAtomicityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PipelineErrorAtomicityTest, FailedCycleNeverFailsACommittedOp) {
  FaultInjector fault(11);
  Env env(TestEnv(&fault));
  DatasetOptions o = Opts(MaintenanceStrategy::kEager, &fault);
  o.writer_threads = 2;
  o.merge_queue_depth = GetParam();
  o.mem_budget_bytes = 16 << 10;
  o.maintenance_retry_limit = 8;
  o.retry_backoff_us = 1000;  // the cycle outlasts the writer's 2x overrun
  Dataset ds(&env, o);
  fault.Arm(failpoints::kFlushBuild,
            FaultSpec::Error(Status::IOError("disk down"), 1.0));
  uint64_t time = 0;
  std::vector<uint64_t> committed;
  uint64_t failed_id = 0;
  Status failed;
  for (uint64_t id = 1; id <= 100000; id++) {
    const Status st = ds.Upsert(MakeTweet(id, id % 5, ++time));
    if (!st.ok()) {
      failed = st;
      failed_id = id;
      break;
    }
    committed.push_back(id);
  }
  ASSERT_FALSE(failed.ok()) << "flush faults never surfaced";
  EXPECT_EQ(ds.health(), DatasetHealth::kDegraded);
  TweetRecord got;
  EXPECT_TRUE(ds.GetById(failed_id, &got).IsNotFound())
      << "op " << failed_id << " returned " << failed.ToString()
      << " yet took effect";
  for (uint64_t id : committed) {
    ASSERT_TRUE(ds.GetById(id, &got).ok()) << "committed op " << id;
  }
  fault.DisarmAll();
  ds.TakeBackgroundError();
  ds.TakeBackgroundError();
}

INSTANTIATE_TEST_SUITE_P(MergeQueueDepth, PipelineErrorAtomicityTest,
                         ::testing::Values(size_t{0}, size_t{2}));

// Correlated merges (§4.4) slice every index at the pk-index anchor's
// positions, so the primary and pk-index component lists must stay aligned
// through merge failures. A correlated round merges the primary first; once
// that merge has used up its retries the pk-index must stay untouched, and
// the job's own retries must re-pick the same range. Here every merge
// attempt fails: with a retry limit of 2, the job gives up after 3 job
// attempts x 3 primary attempts and never reaches the pk-index. Then the
// fault clears, ingest resumes and every later round merges aligned slices.
class CorrelatedMergeFaultTest
    : public ::testing::TestWithParam<MaintenanceStrategy> {};

TEST_P(CorrelatedMergeFaultTest, ExhaustedPrimaryMergeKeepsPkIndexAligned) {
  FaultInjector fault(17);
  Env env(TestEnv(&fault));
  DatasetOptions o = Opts(GetParam(), &fault);
  o.correlated_merges = true;
  o.maintenance_threads = 1;
  o.mem_budget_bytes = 8 << 10;
  o.maintenance_retry_limit = 2;
  Dataset ds(&env, o);
  LsmTree* primary = ds.primary();
  LsmTree* pk = ds.primary_key_index();
  ASSERT_NE(pk, nullptr);
  auto aligned = [&]() {
    const auto p = primary->Components();
    const auto k = pk->Components();
    if (p.size() != k.size()) return false;
    for (size_t i = 0; i < p.size(); i++) {
      if (p[i]->id().min_ts != k[i]->id().min_ts ||
          p[i]->id().max_ts != k[i]->id().max_ts) {
        return false;
      }
    }
    return true;
  };

  fault.Arm(failpoints::kMerge,
            FaultSpec::Error(Status::IOError("merge device down"), 1.0));
  std::map<uint64_t, TweetRecord> model;
  Random rng(808);
  uint64_t time = 0;
  bool degraded = false;
  for (int step = 0; step < 3000; step++) {
    const uint64_t id = 1 + rng.Uniform(kKeySpace);
    Status st;
    if (rng.Bernoulli(0.8)) {
      const TweetRecord r = MakeTweet(id, rng.Uniform(kUserSpace), ++time);
      st = ds.Upsert(r);
      if (st.ok()) model[id] = r;
    } else {
      st = ds.Delete(id);
      if (st.ok()) model.erase(id);
    }
    ASSERT_TRUE(aligned()) << "step " << step;
    if (st.ok()) continue;
    // The op failed fast on the degraded dataset, before any effect.
    ASSERT_FALSE(degraded) << "step " << step << ": " << st.ToString();
    degraded = true;
    EXPECT_EQ(ds.health(), DatasetHealth::kDegraded);
    EXPECT_EQ(fault.site_stats(failpoints::kMerge).hits, 9u)
        << "a merge other than the primary's ran after it failed";
    EXPECT_EQ(ds.ingest_stats().merges, 0u);
    fault.DisarmAll();
    EXPECT_FALSE(ds.TakeBackgroundError().ok());
    ds.TakeBackgroundError();
    ASSERT_EQ(ds.health(), DatasetHealth::kHealthy);
  }
  ASSERT_TRUE(degraded) << "the merge fault never surfaced";
  EXPECT_GT(ds.ingest_stats().merges, 0u);
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(aligned());
  ValidateRecovered(&ds, model, "correlated");
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, CorrelatedMergeFaultTest,
    ::testing::Values(MaintenanceStrategy::kEager,
                      MaintenanceStrategy::kValidation,
                      MaintenanceStrategy::kMutableBitmap,
                      MaintenanceStrategy::kDeletedKeyBtree),
    [](const auto& info) {
      std::string name = StrategyName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Permanent errors never retry: a Corruption from a flush build is returned
// immediately with the step's context attached, and the retry counters stay
// untouched. Disarming and re-flushing recovers the stranded data.
TEST(DegradedModeTest, PermanentErrorsAbandonWithoutRetry) {
  FaultInjector fault(5);
  Env env(TestEnv(&fault));
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager, &fault));
  uint64_t time = 0;
  for (uint64_t id = 1; id <= 80; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 5, ++time)).ok());
  }

  fault.Arm(failpoints::kFlushBuild,
            FaultSpec::Error(Status::Corruption("torn build page"), 1.0));
  const Status st = ds.FlushAll();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // WithContext names the failed step.
  EXPECT_NE(st.ToString().find("flush("), std::string::npos) << st.ToString();
  const MaintenanceStats& ms = ds.maintenance_stats();
  EXPECT_EQ(ms.retries_attempted.load(), 0u);
  EXPECT_GE(ms.rounds_abandoned.load(), 1u);

  fault.DisarmAll();
  ds.TakeBackgroundError();
  ds.TakeBackgroundError();
  ASSERT_TRUE(ds.FlushAll().ok());
  TweetRecord got;
  EXPECT_TRUE(ds.GetById(1, &got).ok());
  EXPECT_EQ(ds.num_records(), 80u);
}

// kDelay faults charge the site's modeled device clock instead of failing:
// the simulated critical path must grow by at least the injected delay while
// the workload itself sees no errors.
TEST(FaultActionsTest, DelayFaultChargesModeledClock) {
  FaultInjector fault(7);
  Env env(TestEnv(&fault));
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager, &fault));
  uint64_t time = 0;
  for (uint64_t id = 1; id <= 40; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 5, ++time)).ok());
  }
  const double before = env.io()->critical_path_us();
  fault.Arm(failpoints::kFlushBuild, FaultSpec::Delay(2500.0));
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_GE(env.io()->critical_path_us() - before, 2500.0);
  EXPECT_GT(fault.site_stats(failpoints::kFlushBuild).fires, 0u);
}

// Parity contract: an armed injector whose sites never fire (probability 0)
// must change nothing — same record count, same flush/merge counts, same
// WAL tail, and the same simulated I/O critical path as a run with no
// injector at all. The CI bench DIGEST check pins the disabled case; this
// pins the armed-but-quiet case.
struct RunFingerprint {
  uint64_t records = 0;
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t read_rows = 0;
  Lsn wal_tail = kInvalidLsn;
  double io_us = 0;
};

RunFingerprint RunParityWorkload(FaultInjector* fault) {
  Env env(TestEnv(fault));
  Dataset ds(&env, Opts(MaintenanceStrategy::kMutableBitmap, fault));
  Random rng(555);
  uint64_t time = 0;
  for (int step = 0; step < 1200; step++) {
    const uint64_t id = 1 + rng.Uniform(kKeySpace);
    if (rng.Bernoulli(0.75)) {
      EXPECT_TRUE(
          ds.Upsert(MakeTweet(id, rng.Uniform(kUserSpace), ++time)).ok());
    } else {
      EXPECT_TRUE(ds.Delete(id).ok());
    }
  }
  EXPECT_TRUE(ds.FlushAll().ok());
  RunFingerprint fp;
  // Read phase: consults (and populates) the tuple cache, so the armed run
  // exercises the cache.tuple_* sites on both the insert and lookup sides.
  {
    SecondaryQueryOptions sq;
    sq.sort_results_by_pk = true;
    QueryResult res;
    EXPECT_TRUE(ds.QueryUserRange(0, 5, sq, &res).ok());
    EXPECT_TRUE(ds.QueryUserRange(0, 5, sq, &res).ok());
    fp.read_rows = res.records.size();
    TweetRecord got;
    for (uint64_t id = 1; id <= 40; id++) {
      if (ds.GetById(id, &got).ok()) fp.read_rows++;
    }
  }
  fp.records = ds.num_records();
  fp.flushes = ds.ingest_stats().flushes;
  fp.merges = ds.ingest_stats().merges;
  fp.wal_tail = ds.wal()->tail_lsn();
  fp.io_us = env.io()->critical_path_us();
  return fp;
}

TEST(FaultParityTest, ArmedInjectorThatNeverFiresChangesNothing) {
  const RunFingerprint base = RunParityWorkload(nullptr);

  FaultInjector fault(1);
  for (const char* site : failpoints::AllSites()) {
    fault.Arm(site, FaultSpec::Error(Status::IOError("never fires"), 0.0));
  }
  const RunFingerprint armed = RunParityWorkload(&fault);

  EXPECT_EQ(armed.records, base.records);
  EXPECT_EQ(armed.flushes, base.flushes);
  EXPECT_EQ(armed.merges, base.merges);
  EXPECT_EQ(armed.read_rows, base.read_rows);
  EXPECT_EQ(armed.wal_tail, base.wal_tail);
  EXPECT_EQ(armed.io_us, base.io_us);
  EXPECT_EQ(fault.TotalFires(), 0u);
  // The sites were genuinely consulted, not bypassed.
  EXPECT_GT(fault.site_stats(failpoints::kEnvAppendPage).hits, 0u);
  EXPECT_GT(fault.site_stats(failpoints::kWalAppend).hits, 0u);
  EXPECT_GT(fault.site_stats(failpoints::kCacheTupleInsert).hits, 0u);
  EXPECT_GT(fault.site_stats(failpoints::kCacheTupleInvalidate).hits, 0u);
}

// --- Failed maintenance steps release what they built ----------------------
// A flush or §5.3 pair build that fails must release every component it
// built but did not install: none of its pages may stay in the page store or
// the buffer cache.

DatasetOptions ReleaseOpts(MaintenanceStrategy s, FaultInjector* fault) {
  DatasetOptions o;
  o.strategy = s;
  o.mem_budget_bytes = 1 << 30;  // flush only when asked
  o.maintenance_threads = 1;     // builds run in tree order
  o.maintenance_retry_limit = 0;
  o.fault_injector = fault;
  return o;
}

void LoadRecords(Dataset* ds, uint64_t first, uint64_t n, uint64_t* time) {
  for (uint64_t id = first; id < first + n; id++) {
    ASSERT_TRUE(ds->Upsert(MakeTweet(id, id % kUserSpace, ++*time)).ok());
  }
}

// Pages of every installed component, over all of the dataset's trees.
uint64_t LivePages(Dataset* ds) {
  std::vector<LsmTree*> trees = {ds->primary(), ds->primary_key_index()};
  for (const auto& s : ds->secondaries()) {
    trees.push_back(s->tree.get());
    trees.push_back(s->deleted_keys.get());
  }
  uint64_t pages = 0;
  for (LsmTree* t : trees) {
    if (t == nullptr) continue;
    for (const auto& c : t->Components()) pages += c->meta().num_pages;
  }
  return pages;
}

TEST(ReleaseOnFailureTest, FailedInstallReleasesEveryBuild) {
  FaultInjector fault(3);
  Env env(TestEnv(&fault));
  Dataset ds(&env, ReleaseOpts(MaintenanceStrategy::kValidation, &fault));
  uint64_t time = 0;
  LoadRecords(&ds, 1, 300, &time);
  const uint64_t pages = env.store()->TotalPages();
  const size_t cached = env.cache()->size();
  fault.Arm(failpoints::kInstall,
            FaultSpec::ErrorNth(Status::IOError("install down"), 1));
  ASSERT_FALSE(ds.FlushAll().ok());
  EXPECT_EQ(env.store()->TotalPages(), pages);
  EXPECT_EQ(env.cache()->size(), cached);
  // The re-flush installs the still-sealed memtables; every page the store
  // holds then belongs to an installed component.
  fault.DisarmAll();
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_GT(LivePages(&ds), 0u);
  EXPECT_EQ(env.store()->TotalPages(), LivePages(&ds));
  EXPECT_EQ(ds.num_records(), 300u);
}

TEST(ReleaseOnFailureTest, FailedBuildReleasesTheOtherTreesBuilds) {
  FaultInjector fault(3);
  Env env(TestEnv(&fault));
  Dataset ds(&env, ReleaseOpts(MaintenanceStrategy::kValidation, &fault));
  uint64_t time = 0;
  LoadRecords(&ds, 1, 300, &time);
  ASSERT_TRUE(ds.FlushAll().ok());
  LoadRecords(&ds, 301, 300, &time);
  const uint64_t pages = env.store()->TotalPages();
  const size_t cached = env.cache()->size();
  // Builds run primary, pk index, user_id: the third build fails after the
  // first two finished.
  fault.Arm(failpoints::kFlushBuild,
            FaultSpec::ErrorNth(Status::IOError("build down"), 3));
  ASSERT_FALSE(ds.FlushAll().ok());
  EXPECT_EQ(fault.site_stats(failpoints::kFlushBuild).hits, 3u);
  EXPECT_EQ(env.store()->TotalPages(), pages);
  EXPECT_EQ(env.cache()->size(), cached);
  fault.DisarmAll();
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_EQ(env.store()->TotalPages(), LivePages(&ds));
  EXPECT_EQ(ds.num_records(), 600u);
}

// The §5.3 pair build finishes the primary output before the pk output: a
// write that fails anywhere — in either builder's pages or its Finish —
// must release both.
TEST(ReleaseOnFailureTest, FailedPairBuildReleasesBothOutputs) {
  FaultInjector fault(3);
  Env env(TestEnv(&fault));
  Dataset ds(&env, ReleaseOpts(MaintenanceStrategy::kMutableBitmap, &fault));
  uint64_t time = 0;
  for (uint64_t c = 0; c < 2; c++) {
    LoadRecords(&ds, 1 + c * 300, 300, &time);
    ASSERT_TRUE(ds.FlushAll().ok());
  }
  auto primary = ds.primary()->Components();
  auto pk = ds.primary_key_index()->Components();
  const uint64_t pages = env.store()->TotalPages();
  const size_t cached = env.cache()->size();
  uint64_t failures = 0;
  Status st;
  for (uint64_t nth = 1; nth <= 1000; nth++) {
    fault.Arm(failpoints::kEnvAppendPage,
              FaultSpec::ErrorNth(Status::IOError("write down"), nth));
    ConcurrentMergeStats stats;
    st = ConcurrentMerge(&ds, primary, pk, BuildCcMethod::kNone, &stats);
    fault.DisarmAll();
    if (st.ok()) break;
    failures++;
    ASSERT_EQ(ds.primary()->Components(), primary) << "nth " << nth;
    ASSERT_EQ(ds.primary_key_index()->Components(), pk) << "nth " << nth;
    ASSERT_EQ(env.store()->TotalPages(), pages) << "nth " << nth;
    ASSERT_EQ(env.cache()->size(), cached) << "nth " << nth;
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(ds.primary()->NumDiskComponents(), 1u);
  // Drop the test's references to the merged inputs so their files go too.
  primary.clear();
  pk.clear();
  EXPECT_EQ(env.store()->TotalPages(), LivePages(&ds));
  EXPECT_EQ(ds.num_records(), 600u);
}

// The time-range scan — under Mutable-bitmap the §5 per-component path,
// which trusts the bitmaps — must match every record and no other.
void ExpectScanMatchesRecords(Dataset* ds, const std::string& trace) {
  ScanResult scan;
  ASSERT_TRUE(ds->ScanTimeRange(0, UINT64_MAX, &scan).ok()) << trace;
  EXPECT_EQ(scan.records_matched, ds->num_records()) << trace;
}

// --- One pair merge ---------------------------------------------------------
// A correlated round merges the primary and the pk index as one pair: one
// scan writes both outputs, and both install or neither. A page write that
// fails anywhere in the first cycle that merges — its flush builds, the pair
// merge or the secondaries' merges — must leave the two lists aligned and
// none of its pages behind. Once the error is taken, the dataset keeps
// ingesting and merging without degrading again, and under Mutable-bitmap
// later deletes still reach the bitmaps the §5 scan reads.
class PairFailureTest : public ::testing::TestWithParam<MaintenanceStrategy> {
 protected:
  // 4 KiB pages keep the first merging cycle near 20 page writes.
  static EnvOptions EnvOpts(FaultInjector* fault) {
    EnvOptions o = TestEnv(fault);
    o.page_size = 4096;
    return o;
  }
  DatasetOptions Options(FaultInjector* fault) const {
    DatasetOptions o = ReleaseOpts(GetParam(), fault);
    o.correlated_merges = true;
    o.mem_budget_bytes = 24 << 10;
    o.max_mergeable_bytes = 1 << 20;
    if (GetParam() == MaintenanceStrategy::kValidation) o.merge_repair = true;
    return o;
  }
  // Op i upserts one of kKeySpace keys; the first kKeySpace ops are inserts.
  static Status Op(Dataset* ds, uint64_t i) {
    return ds->Upsert(
        MakeTweet(1 + (i * 7919) % kKeySpace, i % kUserSpace, i + 1));
  }
};

TEST_P(PairFailureTest, FailedWriteInTheFirstMergeCycleKeepsThePairWhole) {
  // The op whose inline maintenance cycle runs the first merges.
  uint64_t first_merge_op = 0;
  {
    Env env(EnvOpts(nullptr));
    Dataset ds(&env, Options(nullptr));
    while (ds.ingest_stats().merges == 0) {
      ASSERT_TRUE(Op(&ds, first_merge_op).ok());
      if (ds.ingest_stats().merges == 0) first_merge_op++;
      ASSERT_LT(first_merge_op, 10000u) << "no merge";
    }
  }
  uint64_t failures = 0;
  for (uint64_t nth = 1;; nth++) {
    const std::string trace = "nth " + std::to_string(nth);
    FaultInjector fault(11);
    Env env(EnvOpts(&fault));
    Dataset ds(&env, Options(&fault));
    for (uint64_t i = 0; i < first_merge_op; i++) ASSERT_TRUE(Op(&ds, i).ok());
    fault.Arm(failpoints::kEnvAppendPage,
              FaultSpec::ErrorNth(Status::IOError("write down"), nth));
    ASSERT_TRUE(Op(&ds, first_merge_op).ok()) << trace;  // it committed
    const bool fired = fault.site_stats(failpoints::kEnvAppendPage).fires > 0;
    fault.DisarmAll();
    if (!fired) break;  // the cycle wrote fewer than nth pages
    failures++;
    ASSERT_EQ(ds.health(), DatasetHealth::kDegraded) << trace;

    const auto p = ds.primary()->Components();
    const auto k = ds.primary_key_index()->Components();
    ASSERT_EQ(p.size(), k.size()) << trace;
    for (size_t i = 0; i < p.size(); i++) {
      ASSERT_EQ(p[i]->id().min_ts, k[i]->id().min_ts) << trace;
      ASSERT_EQ(p[i]->id().max_ts, k[i]->id().max_ts) << trace;
      ASSERT_EQ(p[i]->num_entries(), k[i]->num_entries()) << trace;
    }
    ASSERT_EQ(env.store()->TotalPages(), LivePages(&ds)) << trace;

    ds.TakeBackgroundError();
    ds.TakeBackgroundError();
    ASSERT_EQ(ds.health(), DatasetHealth::kHealthy) << trace;
    // Ops 0..49 inserted 50 distinct keys.
    for (uint64_t i = 0; i < 50; i++) {
      ASSERT_TRUE(ds.Delete(1 + (i * 7919) % kKeySpace).ok()) << trace;
    }
    ASSERT_TRUE(ds.FlushAll().ok()) << trace;
    ExpectScanMatchesRecords(&ds, trace);
    const uint64_t merges = ds.ingest_stats().merges;
    for (uint64_t i = first_merge_op + 1; i <= first_merge_op + 3000; i++) {
      ASSERT_TRUE(Op(&ds, i).ok()) << trace << " op " << i;
    }
    EXPECT_GT(ds.ingest_stats().merges, merges) << trace;
  }
  EXPECT_GT(failures, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PairFailureTest,
    ::testing::Values(MaintenanceStrategy::kEager,
                      MaintenanceStrategy::kValidation,
                      MaintenanceStrategy::kMutableBitmap,
                      MaintenanceStrategy::kDeletedKeyBtree),
    [](const auto& info) {
      std::string name = StrategyName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// A flush cycle that fails leaves its memtables sealed, and the next cycle
// installs two components per tree. Under Mutable-bitmap each pk-index
// component must share its own primary twin's bitmap, and the seal-window
// marks must reach whichever primary component holds the old version, or
// the §5 scan resurrects deleted rows.
class ReflushedBitmapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<Env>(TestEnv(&fault_));
    ds_ = std::make_unique<Dataset>(
        env_.get(), ReleaseOpts(MaintenanceStrategy::kMutableBitmap, &fault_));
    LoadRecords(ds_.get(), 1, 200, &time_);
    fault_.Arm(failpoints::kFlushBuild,
               FaultSpec::ErrorNth(Status::IOError("build down"), 1));
    ASSERT_FALSE(ds_->FlushAll().ok());
    fault_.DisarmAll();
  }

  FaultInjector fault_{9};
  std::unique_ptr<Env> env_;
  std::unique_ptr<Dataset> ds_;
  uint64_t time_ = 0;
};

TEST_F(ReflushedBitmapTest, EveryPkComponentSharesItsTwinsBitmap) {
  LoadRecords(ds_.get(), 201, 200, &time_);
  ASSERT_TRUE(ds_->FlushAll().ok());
  const auto p = ds_->primary()->Components();
  const auto k = ds_->primary_key_index()->Components();
  ASSERT_EQ(p.size(), 2u);
  ASSERT_EQ(k.size(), 2u);
  for (size_t i = 0; i < p.size(); i++) {
    EXPECT_EQ(k[i]->bitmap(), p[i]->bitmap()) << "component " << i;
  }
  for (uint64_t id = 1; id <= 50; id++) ASSERT_TRUE(ds_->Delete(id).ok());
  ASSERT_TRUE(ds_->FlushAll().ok());
  EXPECT_EQ(ds_->num_records(), 350u);
  ExpectScanMatchesRecords(ds_.get(), "deletes after the re-flush");
}

TEST_F(ReflushedBitmapTest, DeletesOfPendingRecordsReachTheirComponent) {
  // The old versions sit in the memtable the failed cycle left sealed.
  for (uint64_t id = 1; id <= 50; id++) ASSERT_TRUE(ds_->Delete(id).ok());
  ASSERT_TRUE(ds_->FlushAll().ok());
  ASSERT_EQ(ds_->primary()->NumDiskComponents(), 2u);
  EXPECT_EQ(ds_->num_records(), 150u);
  ExpectScanMatchesRecords(ds_.get(), "deletes of pending records");
}

}  // namespace
}  // namespace auxlsm
