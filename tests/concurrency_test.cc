// Mutable-bitmap concurrency control (§5.3): the Lock and Side-file methods
// must preserve correctness while writers delete/upsert keys during a merge;
// the None baseline must at least keep the structure intact when writers are
// quiescent.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/mutable_bitmap_build.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 16;
  o.disk_profile = DiskProfile::Null();
  return o;
}

DatasetOptions MbOptions() {
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kMutableBitmap;
  o.mem_budget_bytes = 1 << 30;  // no automatic flushes during merges
  return o;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "WA";
  r.creation_time = time;
  r.message = std::string(30, 'c');
  return r;
}

// Builds `components` disk components of `per_component` records each.
void LoadComponents(Dataset* ds, int components, uint64_t per_component) {
  uint64_t id = 1;
  for (int c = 0; c < components; c++) {
    for (uint64_t i = 0; i < per_component; i++, id++) {
      ASSERT_TRUE(ds->Upsert(MakeTweet(id, 1, id)).ok());
    }
    ASSERT_TRUE(ds->FlushAll().ok());
  }
}

// Merges the newest `n` components of the primary and pk index as one pair.
Status MergeNewest(Dataset* ds, size_t n, BuildCcMethod method,
                   ConcurrentMergeStats* stats) {
  const auto p = ds->primary()->Components();
  const auto k = ds->primary_key_index()->Components();
  return ConcurrentMerge(ds, {p.begin(), p.begin() + n},
                         {k.begin(), k.begin() + n}, method, stats);
}

class CcMethodTest : public ::testing::TestWithParam<BuildCcMethod> {};

TEST_P(CcMethodTest, QuiescentMergeKeepsAllRecords) {
  Env env(TestEnv());
  Dataset ds(&env, MbOptions());
  LoadComponents(&ds, 4, 100);
  ASSERT_EQ(ds.primary()->NumDiskComponents(), 4u);

  ConcurrentMergeStats stats;
  ASSERT_TRUE(MergeNewest(&ds, 4, GetParam(), &stats).ok());
  EXPECT_EQ(ds.primary()->NumDiskComponents(), 1u);
  EXPECT_EQ(ds.primary_key_index()->NumDiskComponents(), 1u);
  EXPECT_EQ(stats.output_entries, 400u);
  EXPECT_EQ(ds.num_records(), 400u);
  // Primary and pk index share the new component's bitmap.
  EXPECT_EQ(ds.primary()->Components()[0]->bitmap().get(),
            ds.primary_key_index()->Components()[0]->bitmap().get());
}

TEST_P(CcMethodTest, PreMergeDeletionsExcluded) {
  Env env(TestEnv());
  Dataset ds(&env, MbOptions());
  LoadComponents(&ds, 2, 100);
  // Delete 20 records before the merge: their bitmap bits are set.
  for (uint64_t id = 1; id <= 20; id++) {
    ASSERT_TRUE(ds.Delete(id).ok());
  }
  ConcurrentMergeStats stats;
  ASSERT_TRUE(MergeNewest(&ds, 2, GetParam(), &stats).ok());
  // Anti-matter from the memtable is still there, but the merged component
  // must not contain the 20 deleted records.
  EXPECT_EQ(stats.output_entries, 180u);
  EXPECT_EQ(ds.num_records(), 180u);
}

INSTANTIATE_TEST_SUITE_P(Methods, CcMethodTest,
                         ::testing::Values(BuildCcMethod::kNone,
                                           BuildCcMethod::kLock,
                                           BuildCcMethod::kSideFile),
                         [](const auto& info) {
                           switch (info.param) {
                             case BuildCcMethod::kNone: return "none";
                             case BuildCcMethod::kLock: return "lock";
                             case BuildCcMethod::kSideFile: return "sidefile";
                           }
                           return "?";
                         });

class ConcurrentWriterTest : public ::testing::TestWithParam<BuildCcMethod> {};

// A delete that lands after the scan copied its key reaches the merged
// component only through the build's overlay. Memtable anti-matter hides a
// lost overlay mark from every reconciling read, so each run also flushes
// and compares the §5 per-component scan, which trusts the bitmaps, with
// the record count. Whether any delete lands in that window depends on the
// interleaving, so the scenario repeats, up to a bound, until one did.
TEST_P(ConcurrentWriterTest, DeletesDuringMergeAreNotLost) {
  uint64_t overlay_marks = 0;
  for (int run = 0; run < 50 && overlay_marks == 0; run++) {
    SCOPED_TRACE("run " + std::to_string(run));
    Env env(TestEnv());
    Dataset ds(&env, MbOptions());
    const uint64_t per_component = 400;
    LoadComponents(&ds, 4, per_component);
    const uint64_t total = 4 * per_component;

    const auto inputs = ds.primary()->Components();
    std::atomic<bool> merged{false};
    std::atomic<uint64_t> deleted{0};
    std::thread writer([&]() {
      // Delete every 8th record once the scan has copied the first 400
      // (or the merge is over), so the first deletes land behind the scan.
      while (!merged.load()) {
        const auto link = inputs.front()->build_link();
        if (link != nullptr && link->emitted_count.load() >= 400) break;
        std::this_thread::yield();
      }
      for (uint64_t id = 1; id <= total; id += 8) {
        if (ds.Delete(id).ok()) deleted.fetch_add(1);
      }
    });

    ConcurrentMergeStats stats;
    const Status st = MergeNewest(&ds, 4, GetParam(), &stats);
    merged.store(true);
    writer.join();
    ASSERT_TRUE(st.ok()) << st.ToString();
    overlay_marks += stats.overlay_marks;

    EXPECT_EQ(deleted.load(), total / 8);
    // Every delete must be effective whether or not it raced the merge
    // (the §5.3 correctness property).
    for (uint64_t id = 1; id <= total; id += 64) {
      TweetRecord r;
      EXPECT_TRUE(ds.GetById(id, &r).IsNotFound()) << "id " << id;
    }
    EXPECT_EQ(ds.num_records(), total - deleted.load());
    ASSERT_TRUE(ds.FlushAll().ok());
    ScanResult scan;
    ASSERT_TRUE(ds.ScanTimeRange(0, UINT64_MAX, &scan).ok());
    EXPECT_EQ(scan.records_matched, total - deleted.load());
  }
  EXPECT_GT(overlay_marks, 0u) << "no delete landed behind the scan";
}

INSTANTIATE_TEST_SUITE_P(Methods, ConcurrentWriterTest,
                         ::testing::Values(BuildCcMethod::kLock,
                                           BuildCcMethod::kSideFile),
                         [](const auto& info) {
                           return info.param == BuildCcMethod::kLock
                                      ? "lock"
                                      : "sidefile";
                         });

TEST(SideFileTest, RollbackWhileSideFileOpenAppendsAntimatter) {
  Env env(TestEnv());
  Dataset ds(&env, MbOptions());
  LoadComponents(&ds, 2, 50);

  // Start a transaction that deletes, then aborts, while a side-file build
  // link is attached manually.
  auto comps = ds.primary()->Components();
  auto kcomps = ds.primary_key_index()->Components();
  uint64_t capacity = 0;
  for (const auto& c : comps) capacity += c->num_entries();
  auto link = std::make_shared<BuildLink>(BuildCcMethod::kSideFile, capacity);
  for (const auto& c : comps) c->set_build_link(link);
  for (const auto& c : kcomps) c->set_build_link(link);

  auto txn = ds.Begin();
  ASSERT_TRUE(ds.DeleteTxn(5, txn.get()).ok());
  {
    MutexLock l(link->mu);
    ASSERT_EQ(link->side_file.size(), 1u);
    EXPECT_FALSE(link->side_file[0].second);  // a delete entry
  }
  ASSERT_TRUE(txn->Abort().ok());
  {
    MutexLock l(link->mu);
    ASSERT_EQ(link->side_file.size(), 2u);
    EXPECT_TRUE(link->side_file[1].second);  // the rollback anti-matter
  }
  for (const auto& c : comps) c->set_build_link(nullptr);
  for (const auto& c : kcomps) c->set_build_link(nullptr);
  TweetRecord r;
  EXPECT_TRUE(ds.GetById(5, &r).ok());  // delete rolled back
}

TEST(LockMethodTest, WriterMarksEmittedKeyInOverlay) {
  BuildLink link(BuildCcMethod::kLock, 10);
  link.emitted_keys.push_back("a");
  link.emitted_keys.push_back("c");
  link.emitted_count.store(2);
  ApplyDeleteToBuild(&link, "c", nullptr);
  EXPECT_TRUE(link.overlay.Test(1));
  ApplyDeleteToBuild(&link, "b", nullptr);  // not emitted: no-op
  EXPECT_EQ(link.overlay.CountSet(), 1u);
  ApplyDeleteToBuild(&link, "z", nullptr);  // beyond ScannedKey: no-op
  EXPECT_EQ(link.overlay.CountSet(), 1u);
}

TEST(ConcurrencyStressTest, ParallelAutoCommitUpserts) {
  Env env(TestEnv());
  DatasetOptions o = MbOptions();
  o.mem_budget_bytes = 256 << 10;
  Dataset ds(&env, o);
  // Seed records, then hammer upserts from multiple threads on disjoint and
  // overlapping key ranges.
  for (uint64_t i = 1; i <= 200; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&ds, t, &failures]() {
      for (uint64_t i = 1; i <= 200; i++) {
        if (!ds.Upsert(MakeTweet(i, 10 + t, 1000 + i)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ds.num_records(), 200u);
  // Each record's user_id ends up as one of the four writers' values.
  TweetRecord r;
  ASSERT_TRUE(ds.GetById(100, &r).ok());
  EXPECT_GE(r.user_id, 10u);
  EXPECT_LE(r.user_id, 13u);
}

// One-writer datasets (writer_threads = 1) run the maintenance cycle inline
// on the op that overran the budget, with builds and merges outside the
// exclusive ingest latch: other threads' upserts and deletes land during the
// build, the install and the merges. Each thread owns a disjoint key range,
// so its own last op decides each key's final state.
class InlineCycleStressTest
    : public ::testing::TestWithParam<MaintenanceStrategy> {};

TEST_P(InlineCycleStressTest, ConcurrentWritesDuringInlineCycles) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = GetParam();
  o.mem_budget_bytes = 16 << 10;
  o.maintenance_threads = 1;
  Dataset ds(&env, o);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 250;  // per thread
  constexpr uint64_t kUsers = 50;
  std::vector<std::map<uint64_t, uint64_t>> expected(kThreads);  // id -> user
  std::atomic<int> failures{0};
  std::atomic<size_t> peak_mem{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      std::map<uint64_t, uint64_t>& mine = expected[t];
      for (uint64_t round = 0; round < 4; round++) {
        for (uint64_t i = 0; i < kKeys; i++) {
          const uint64_t id = uint64_t(t) * kKeys + i + 1;
          if ((i + round) % 5 == 0) {
            if (!ds.Delete(id).ok()) failures++;
            mine.erase(id);
          } else {
            const uint64_t user = (id + round) % kUsers;
            if (!ds.Upsert(MakeTweet(id, user, round * 10000 + id)).ok()) {
              failures++;
            }
            mine[id] = user;
          }
          const size_t mem = ds.MemComponentBytes();
          size_t peak = peak_mem.load();
          while (mem > peak && !peak_mem.compare_exchange_weak(peak, mem)) {
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_GT(ds.ingest_stats().flushes, 0u);
  EXPECT_GT(ds.ingest_stats().merges, 0u);
  // Backpressure: an op at twice the budget waits out the running cycle, so
  // each thread adds at most one op (well under 1 KiB of memtable entries)
  // beyond that bound.
  EXPECT_LE(peak_mem.load(), 2 * o.mem_budget_bytes + kThreads * 1024);

  std::map<uint64_t, uint64_t> all;
  for (const auto& m : expected) all.insert(m.begin(), m.end());
  for (uint64_t id = 1; id <= kThreads * kKeys; id++) {
    TweetRecord r;
    const Status st = ds.GetById(id, &r);
    auto it = all.find(id);
    if (it == all.end()) {
      EXPECT_TRUE(st.IsNotFound()) << "id " << id << ": " << st.ToString();
    } else {
      ASSERT_TRUE(st.ok()) << "id " << id << ": " << st.ToString();
      EXPECT_EQ(r.user_id, it->second) << "id " << id;
    }
  }
  EXPECT_EQ(ds.num_records(), all.size());
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(0, kUsers - 1, SecondaryQueryOptions{}, &res)
                  .ok());
  std::map<uint64_t, uint64_t> got;
  for (const auto& r : res.records) {
    EXPECT_TRUE(got.emplace(r.id, r.user_id).second) << "duplicate " << r.id;
  }
  EXPECT_EQ(got, all);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, InlineCycleStressTest,
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

// A full pair merge (MergeAllIndexes, PrimaryRepair(true)) reads both trees'
// component lists while another thread may flush. The primary's install hook
// starts the merge between the flush's primary and pk-index installs, and
// waits up to 200 ms for it. Read in that window, the lists would give the
// pair merge a pk run one component short: the flushed pk component would
// stay in front of the merged twin (misaligned lists, and under
// Mutable-bitmap a pk component sharing a retired bitmap, so its deletes
// would take no effect).
class FullPairMergeRaceTest
    : public ::testing::TestWithParam<MaintenanceStrategy> {};

TEST_P(FullPairMergeRaceTest, MergeDuringAFlushInstallKeepsThePairWhole) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = GetParam();
  o.mem_budget_bytes = 1 << 30;  // only the explicit flushes below
  Dataset ds(&env, o);
  uint64_t id = 0;
  for (int c = 0; c < 3; c++) {
    for (int i = 0; i < 100; i++, id++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(id + 1, 1, id + 1)).ok());
    }
    if (c < 2) ASSERT_TRUE(ds.FlushAll().ok());
  }
  std::atomic<bool> armed{true};
  std::atomic<bool> merged{false};
  Status merge_status;
  std::thread merger;
  ds.primary()->set_install_hook([&]() {
    if (!armed.exchange(false)) return;
    merger = std::thread([&]() {
      merge_status = ds.MergeAllIndexes();
      merged = true;
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (!merged.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const Status flushed = ds.FlushAll();
  ASSERT_TRUE(merger.joinable());
  merger.join();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  ASSERT_TRUE(merge_status.ok()) << merge_status.ToString();

  const auto p = ds.primary()->Components();
  const auto k = ds.primary_key_index()->Components();
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(k.size(), 1u);
  EXPECT_EQ(k[0]->id().min_ts, p[0]->id().min_ts);
  EXPECT_EQ(k[0]->id().max_ts, p[0]->id().max_ts);
  EXPECT_EQ(k[0]->num_entries(), 300u);
  for (uint64_t key = 1; key <= id; key += 10) {
    ASSERT_TRUE(ds.Delete(key).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_EQ(ds.num_records(), 270u);
  ScanResult scan;
  ASSERT_TRUE(ds.ScanTimeRange(0, UINT64_MAX, &scan).ok());
  EXPECT_EQ(scan.records_matched, 270u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, FullPairMergeRaceTest,
    ::testing::Values(MaintenanceStrategy::kEager,
                      MaintenanceStrategy::kMutableBitmap),
    [](const auto& info) {
      std::string name = StrategyName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace auxlsm
