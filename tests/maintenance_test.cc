// Maintenance engine (exec/maintenance.h): the parallel flush/merge pipeline
// must produce datasets indistinguishable from the serial engine, stay
// correct under concurrent readers, and nested fan-out must not deadlock
// the pool.
#include "exec/maintenance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "core/dataset.h"
#include "core/point_lookup.h"
#include "exec/thread_pool.h"
#include "format/key_codec.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv(size_t cache_shards = 1) {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 16;
  o.cache_shards = cache_shards;
  o.disk_profile = DiskProfile::Null();
  return o;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "WA";
  r.creation_time = time;
  r.message = "m" + std::to_string(id);
  return r;
}

DatasetOptions BaseOptions(MaintenanceStrategy strategy, size_t threads) {
  DatasetOptions o;
  o.strategy = strategy;
  o.mem_budget_bytes = 64 << 10;  // frequent automatic flushes and merges
  o.max_mergeable_bytes = 4 << 20;
  o.maintenance_threads = threads;
  return o;
}

// Ingests a deterministic workload of upserts and deletes.
void RunWorkload(Dataset* ds, uint64_t ops) {
  for (uint64_t i = 1; i <= ops; i++) {
    const uint64_t id = i % 700;
    if (i % 13 == 0) {
      ASSERT_TRUE(ds->Delete(id).ok());
    } else {
      ASSERT_TRUE(ds->Upsert(MakeTweet(id, id % 50, i)).ok());
    }
  }
}

// Reconciled view of the dataset: id -> user for every live record.
std::map<uint64_t, uint64_t> LiveRecords(Dataset* ds) {
  std::map<uint64_t, uint64_t> out;
  for (uint64_t id = 0; id < 700; id++) {
    TweetRecord rec;
    if (ds->GetById(id, &rec).ok()) out[id] = rec.user_id;
  }
  return out;
}

class MaintenanceParityTest
    : public ::testing::TestWithParam<MaintenanceStrategy> {};

TEST_P(MaintenanceParityTest, ParallelEngineMatchesSerialEngine) {
  const MaintenanceStrategy strategy = GetParam();
  Env serial_env(TestEnv());
  Dataset serial(&serial_env, BaseOptions(strategy, 1));
  EXPECT_FALSE(serial.maintenance()->parallel());
  RunWorkload(&serial, 3000);

  Env parallel_env(TestEnv(/*cache_shards=*/8));
  Dataset parallel(&parallel_env, BaseOptions(strategy, 4));
  ASSERT_NE(parallel.maintenance(), nullptr);
  EXPECT_TRUE(parallel.maintenance()->parallel());
  RunWorkload(&parallel, 3000);

  // Both engines flushed and merged along the way.
  EXPECT_GT(parallel.ingest_stats().flushes, 0u);
  EXPECT_GT(parallel.ingest_stats().merges, 0u);
  EXPECT_EQ(parallel.ingest_stats().flushes, serial.ingest_stats().flushes);

  EXPECT_EQ(LiveRecords(&parallel), LiveRecords(&serial));
  EXPECT_EQ(parallel.num_records(), serial.num_records());

  // Secondary queries agree too (every user bucket).
  SecondaryQueryOptions q;
  for (uint64_t user = 0; user < 50; user++) {
    QueryResult rs, rp;
    ASSERT_TRUE(serial.QueryUserRange(user, user, q, &rs).ok());
    ASSERT_TRUE(parallel.QueryUserRange(user, user, q, &rp).ok());
    std::set<uint64_t> ids_s, ids_p;
    for (const auto& r : rs.records) ids_s.insert(r.id);
    for (const auto& r : rp.records) ids_p.insert(r.id);
    EXPECT_EQ(ids_p, ids_s) << "user " << user;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, MaintenanceParityTest,
    ::testing::Values(MaintenanceStrategy::kEager,
                      MaintenanceStrategy::kValidation,
                      MaintenanceStrategy::kMutableBitmap,
                      MaintenanceStrategy::kDeletedKeyBtree),
    [](const auto& info) {
      std::string name = StrategyName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(MaintenanceParityTest, MergeRepairParity) {
  // Validation with merge repair exercises the repair-in-task path.
  auto opts = [](size_t threads) {
    DatasetOptions o = BaseOptions(MaintenanceStrategy::kValidation, threads);
    o.merge_repair = true;
    return o;
  };
  Env es, ep;
  Dataset serial(&es, opts(1));
  Dataset parallel(&ep, opts(4));
  RunWorkload(&serial, 3000);
  RunWorkload(&parallel, 3000);
  EXPECT_GT(parallel.ingest_stats().repairs, 0u);
  EXPECT_EQ(LiveRecords(&parallel), LiveRecords(&serial));
}

TEST(MaintenanceStressTest, LookupsDuringConcurrentFlushAndMerge) {
  // Flush + merge on the engine while reader threads hammer point lookups
  // and bulk lookups; every observed answer must be a value the key really
  // had, and the final state must reconcile with the serial engine.
  Env env(TestEnv(/*cache_shards=*/8));
  DatasetOptions o = BaseOptions(MaintenanceStrategy::kEager, 4);
  o.mem_budget_bytes = 16 << 10;  // small budget: maintenance churns
  Dataset ds(&env, o);
  ASSERT_NE(ds.maintenance(), nullptr);

  constexpr uint64_t kKeys = 1500;
  constexpr uint64_t kOps = 6000;
  std::atomic<uint64_t> watermark{0};  // ids < watermark are durably present
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_checks{0};
  std::atomic<uint64_t> reader_errors{0};

  auto reader = [&]() {
    uint64_t seed = 12345;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t wm = watermark.load(std::memory_order_acquire);
      if (wm == 0) {
        std::this_thread::yield();
        continue;
      }
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t id = (seed >> 33) % wm;
      TweetRecord rec;
      if (!ds.GetById(id, &rec).ok() || rec.id != id ||
          rec.user_id != id % 50) {
        reader_errors.fetch_add(1);
      }
      // Bulk lookup over a small sorted id range against the primary tree.
      std::vector<FetchRequest> reqs;
      for (uint64_t k = id; k < std::min(id + 16, wm); k++) {
        reqs.push_back(FetchRequest{EncodeU64(k), 0});
      }
      std::vector<FetchedEntry> out;
      PointLookupOptions lopts;
      if (!BulkPointLookup(*ds.primary(), reqs, lopts, &out).ok() ||
          out.size() != reqs.size()) {
        reader_errors.fetch_add(1);
      }
      reader_checks.fetch_add(1);
    }
  };
  // Secondary queries and scans during maintenance: every id a user-bucket
  // query returns must really belong to that bucket, and no query may fail.
  auto query_reader = [&]() {
    uint64_t user = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (watermark.load(std::memory_order_acquire) == 0) {
        std::this_thread::yield();
        continue;
      }
      SecondaryQueryOptions q;
      QueryResult res;
      if (!ds.QueryUserRange(user, user, q, &res).ok()) {
        reader_errors.fetch_add(1);
      }
      for (const auto& r : res.records) {
        if (r.user_id != user || r.id % 50 != user) reader_errors.fetch_add(1);
      }
      ScanResult sr;
      if (!ds.ScanTimeRange(1, kOps, &sr).ok()) reader_errors.fetch_add(1);
      user = (user + 7) % 50;
      reader_checks.fetch_add(1);
    }
  };
  std::thread r1(reader), r2(query_reader);

  // Writer: insert each id exactly once (stable expected values), with the
  // shared memory budget driving automatic flushes and merges underneath
  // the readers.
  for (uint64_t i = 0; i < kOps; i++) {
    const uint64_t id = i % kKeys;
    if (id < watermark.load(std::memory_order_relaxed)) {
      // Re-upsert with identical contents (ts advances; value stable).
      ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 50, i + 1)).ok());
    } else {
      ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 50, i + 1)).ok());
      watermark.store(id + 1, std::memory_order_release);
    }
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_GT(reader_checks.load(), 0u);
  EXPECT_EQ(reader_errors.load(), 0u);
  EXPECT_GT(ds.ingest_stats().merges, 0u);

  // Final reconciled state matches a serially maintained copy.
  Env env2(TestEnv());
  DatasetOptions o2 = BaseOptions(MaintenanceStrategy::kEager, 1);
  o2.mem_budget_bytes = 16 << 10;
  Dataset serial(&env2, o2);
  for (uint64_t i = 0; i < kOps; i++) {
    const uint64_t id = i % kKeys;
    ASSERT_TRUE(serial.Upsert(MakeTweet(id, id % 50, i + 1)).ok());
  }
  ASSERT_TRUE(serial.FlushAll().ok());
  EXPECT_EQ(ds.num_records(), serial.num_records());
  for (uint64_t id = 0; id < kKeys; id++) {
    TweetRecord a, b;
    ASSERT_TRUE(ds.GetById(id, &a).ok());
    ASSERT_TRUE(serial.GetById(id, &b).ok());
    EXPECT_EQ(a.user_id, b.user_id);
    EXPECT_EQ(a.message, b.message);
  }
}

TEST(MaintenanceSchedulerTest, SerialSchedulerRunsInline) {
  MaintenanceOptions mo;
  mo.threads = 1;
  MaintenanceScheduler scheduler(mo);
  EXPECT_FALSE(scheduler.parallel());
  EXPECT_EQ(scheduler.pool(), nullptr);
  int ran = 0;
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([&ran]() { ran++; return Status::OK(); });
  tasks.push_back([&ran]() { ran++; return Status::IOError("x"); });
  tasks.push_back([&ran]() { ran++; return Status::OK(); });
  // All tasks run even past an error; the first error is returned.
  EXPECT_TRUE(scheduler.RunAll(std::move(tasks)).IsIOError());
  EXPECT_EQ(ran, 3);
}

TEST(MaintenanceSchedulerTest, NestedFanOutDoesNotDeadlock) {
  // Tasks that themselves fan out on RunAll (as a correlated merge job runs
  // its secondary phase) saturate the pool; the helping wait must keep
  // making progress with more tasks than workers.
  MaintenanceOptions mo;
  mo.threads = 2;
  MaintenanceScheduler scheduler(mo);
  Env env(TestEnv(/*cache_shards=*/4));
  std::vector<std::unique_ptr<LsmTree>> trees;
  for (int t = 0; t < 6; t++) {
    auto tree = std::make_unique<LsmTree>(&env, LsmTreeOptions());
    uint64_t ts = 0;
    for (int c = 0; c < 3; c++) {
      for (uint64_t i = 0; i < 500; i++) {
        tree->Put(EncodeU64(i * 3 + c), "v", ++ts);
      }
      ASSERT_TRUE(tree->Flush().ok());
    }
    trees.push_back(std::move(tree));
  }
  std::vector<std::function<Status()>> tasks;
  for (size_t i = 0; i < trees.size(); i += 2) {
    LsmTree* a = trees[i].get();
    LsmTree* b = trees[i + 1].get();
    tasks.push_back([&scheduler, a, b]() {
      std::vector<std::function<Status()>> inner;
      for (LsmTree* t : {a, b}) {
        inner.push_back([t]() { return t->MergeComponents(t->Components()); });
      }
      return scheduler.RunAll(std::move(inner));
    });
  }
  ASSERT_TRUE(scheduler.RunAll(std::move(tasks)).ok());
  for (auto& tree : trees) {
    EXPECT_EQ(tree->NumDiskComponents(), 1u);
    EXPECT_EQ(tree->Components().front()->num_entries(), 1500u);
  }
}

}  // namespace
}  // namespace auxlsm
