// Index repair tests (§4.4 / §6.5): merge repair, standalone repair, the
// repairedTS pruning bookkeeping, the Bloom-filter optimization, DELI-style
// primary repair, and deleted-key merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/dataset.h"
#include "core/deleted_key.h"
#include "core/mutable_bitmap_build.h"
#include "format/key_codec.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 16;
  o.disk_profile = DiskProfile::Null();
  return o;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "TX";
  r.creation_time = time;
  r.message = std::string(40, 'm');
  return r;
}

DatasetOptions ValidationOpts(bool merge_repair, bool bloom_opt = false) {
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = merge_repair;
  o.repair_bloom_opt = bloom_opt;
  o.correlated_merges = bloom_opt;  // the bloom opt needs correlated merges
  o.mem_budget_bytes = 1 << 30;
  return o;
}

// Counts live (bitmap-valid, non-antimatter) entries across the secondary
// index's disk components.
uint64_t LiveSecondaryEntries(Dataset* ds) {
  uint64_t live = 0;
  for (const auto& c : ds->secondary(0)->tree->Components()) {
    auto it = c->tree().NewIterator();
    EXPECT_TRUE(it.SeekToFirst().ok());
    while (it.Valid()) {
      if (!it.antimatter() && c->EntryValid(it.ordinal())) live++;
      EXPECT_TRUE(it.Next().ok());
    }
  }
  return live;
}

TEST(MergeRepairTest, ObsoleteEntriesGetBitmapped) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(/*merge_repair=*/false));
  for (uint64_t i = 1; i <= 100; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  // Update half the records to a different user: 50 obsolete entries.
  for (uint64_t i = 1; i <= 100; i += 2) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 200 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  EXPECT_EQ(LiveSecondaryEntries(&ds), 150u);  // 100 old + 50 new

  // Merge-repair everything.
  auto picked = ds.secondary(0)->tree->Components();
  ASSERT_TRUE(RunMergeRepair(&ds, ds.secondary(0), picked).ok());
  EXPECT_EQ(ds.secondary(0)->tree->NumDiskComponents(), 1u);
  EXPECT_EQ(LiveSecondaryEntries(&ds), 100u);  // obsolete ones bitmapped

  // repairedTS advanced to cover the pk index components.
  const auto comp = ds.secondary(0)->tree->Components()[0];
  Timestamp max_pk_ts = 0;
  for (const auto& c : ds.primary_key_index()->Components()) {
    max_pk_ts = std::max(max_pk_ts, c->id().max_ts);
  }
  EXPECT_EQ(comp->repaired_ts(), max_pk_ts);
}

TEST(MergeRepairTest, PhysicalRemovalAtNextMerge) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(false));
  for (uint64_t i = 1; i <= 50; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 50; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 100 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  auto picked = ds.secondary(0)->tree->Components();
  ASSERT_TRUE(RunMergeRepair(&ds, ds.secondary(0), picked).ok());
  const uint64_t entries_after_repair =
      ds.secondary(0)->tree->Components()[0]->num_entries();
  EXPECT_EQ(entries_after_repair, 100u);  // still physically present
  // The invalid entries are physically removed by the next merge.
  ASSERT_TRUE(ds.Upsert(MakeTweet(1000, 3, 1000)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.secondary(0)->tree->MergeAll().ok());
  EXPECT_EQ(ds.secondary(0)->tree->Components()[0]->num_entries(), 51u);
}

TEST(StandaloneRepairTest, BuildsBitmapWithoutMerging) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(false));
  for (uint64_t i = 1; i <= 60; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 60; i += 3) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 100 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  const size_t comps_before = ds.secondary(0)->tree->NumDiskComponents();
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());
  EXPECT_EQ(ds.secondary(0)->tree->NumDiskComponents(), comps_before);
  EXPECT_EQ(LiveSecondaryEntries(&ds), 60u);
}

TEST(StandaloneRepairTest, RepairedTsPrunesSecondRepair) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(false));
  for (uint64_t i = 1; i <= 40; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());
  const Timestamp ts1 =
      ds.secondary(0)->tree->Components()[0]->repaired_ts();
  EXPECT_GT(ts1, 0u);
  // No new data: a second repair keeps the repairedTS (nothing unpruned).
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());
  EXPECT_EQ(ds.secondary(0)->tree->Components()[0]->repaired_ts(), ts1);
  // New data advances it again.
  for (uint64_t i = 100; i <= 120; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());
  EXPECT_GT(ds.secondary(0)->tree->Components().back()->repaired_ts(), ts1);
}

TEST(RepairTest, QueriesCorrectAfterRepair) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(true));
  std::set<uint64_t> user2;
  for (uint64_t i = 1; i <= 200; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 200; i += 4) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 500 + i)).ok());
    user2.insert(i);
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());

  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(2, 2, q, &res).ok());
  std::set<uint64_t> got;
  for (const auto& r : res.records) got.insert(r.id);
  EXPECT_EQ(got, user2);
  // After repair, validation filters nothing out for this query.
  EXPECT_EQ(res.validated_out, 0u);
}

TEST(RepairBloomOptTest, SameOutcomeWithAndWithoutBloomOpt) {
  for (bool bloom_opt : {false, true}) {
    Env env(TestEnv());
    Dataset ds(&env, ValidationOpts(/*merge_repair=*/true, bloom_opt));
    for (uint64_t i = 1; i <= 150; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    for (uint64_t i = 1; i <= 150; i += 2) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 300 + i)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    ASSERT_TRUE(ds.RepairAllSecondaries().ok());
    EXPECT_EQ(LiveSecondaryEntries(&ds), 150u) << "bloom_opt=" << bloom_opt;

    SecondaryQueryOptions q;
    QueryResult res;
    ASSERT_TRUE(ds.QueryUserRange(1, 1, q, &res).ok());
    EXPECT_EQ(res.records.size(), 75u) << "bloom_opt=" << bloom_opt;
  }
}

TEST(PrimaryRepairTest, DeliCleansObsoleteEntries) {
  Env env(TestEnv());
  DatasetOptions o = ValidationOpts(false);
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 80; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 80; i += 2) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 100 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.PrimaryRepair(/*with_merge=*/false).ok());
  EXPECT_EQ(LiveSecondaryEntries(&ds), 80u);

  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(1, 1, q, &res).ok());
  EXPECT_EQ(res.records.size(), 40u);
}

TEST(PrimaryRepairTest, WithMergeCollapsesPrimaryComponents) {
  Env env(TestEnv());
  Dataset ds(&env, ValidationOpts(false));
  for (int round = 0; round < 3; round++) {
    for (uint64_t i = 1; i <= 30; i++) {
      ASSERT_TRUE(
          ds.Upsert(MakeTweet(i + round * 100, 1, i + round * 100)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
  }
  EXPECT_GT(ds.primary()->NumDiskComponents(), 1u);
  ASSERT_TRUE(ds.PrimaryRepair(/*with_merge=*/true).ok());
  EXPECT_EQ(ds.primary()->NumDiskComponents(), 1u);
}

// The full merge behind PrimaryRepair(true) merges the primary and the pk
// index as one pair: under Mutable-bitmap the merged pk component shares the
// merged primary's bitmap, so later deletes, found through the pk index,
// still mark the rows the §5 per-component scan reads.
TEST(PrimaryRepairTest, WithMergeKeepsThePairsSharedBitmap) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kMutableBitmap;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  uint64_t time = 0;
  for (int round = 0; round < 3; round++) {
    for (uint64_t i = 1; i <= 150; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(round * 1000 + i, 1, ++time)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
  }
  ASSERT_TRUE(ds.PrimaryRepair(/*with_merge=*/true).ok());
  ASSERT_EQ(ds.primary()->NumDiskComponents(), 1u);
  ASSERT_EQ(ds.primary_key_index()->NumDiskComponents(), 1u);
  EXPECT_EQ(ds.primary_key_index()->Components()[0]->bitmap(),
            ds.primary()->Components()[0]->bitmap());
  for (uint64_t i = 1; i <= 50; i++) ASSERT_TRUE(ds.Delete(i).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  ScanResult scan;
  ASSERT_TRUE(ds.ScanTimeRange(0, UINT64_MAX, &scan).ok());
  EXPECT_EQ(ds.num_records(), 400u);
  EXPECT_EQ(scan.records_matched, 400u);
}

uint64_t RowsForUser(Dataset* ds, uint64_t user) {
  auto cursor = ds->NewCursor(Query().Secondary("user_id").Range(user, user));
  EXPECT_TRUE(cursor.ok());
  QueryResult res;
  EXPECT_TRUE((*cursor)->Drain(&res).ok());
  return res.records.size();
}

// DELI's scan reads disk components only, so it flushes first. Otherwise,
// with a key's newest version still in memory, the newest *disk* version
// passes for current, and the anti-matter for the older versions' keys
// overwrites the unflushed version's live secondary entry.
TEST(PrimaryRepairTest, UnflushedNewestVersionKeepsItsEntries) {
  for (MaintenanceStrategy s :
       {MaintenanceStrategy::kEager, MaintenanceStrategy::kValidation,
        MaintenanceStrategy::kMutableBitmap,
        MaintenanceStrategy::kDeletedKeyBtree}) {
    for (bool with_merge : {false, true}) {
      SCOPED_TRACE(std::string(StrategyName(s)) +
                   (with_merge ? " with merge" : ""));
      Env env(TestEnv());
      DatasetOptions o;
      o.strategy = s;
      o.mem_budget_bytes = 1 << 30;
      Dataset ds(&env, o);
      ASSERT_TRUE(ds.Upsert(MakeTweet(1, 10, 1)).ok());
      ASSERT_TRUE(ds.FlushAll().ok());
      ASSERT_TRUE(ds.Upsert(MakeTweet(1, 20, 2)).ok());
      ASSERT_TRUE(ds.FlushAll().ok());
      ASSERT_TRUE(ds.Upsert(MakeTweet(1, 10, 3)).ok());  // stays in memory
      ASSERT_TRUE(ds.PrimaryRepair(with_merge).ok());
      EXPECT_EQ(RowsForUser(&ds, 10), 1u);
      EXPECT_EQ(RowsForUser(&ds, 20), 0u);
    }
  }
}

TEST(DeletedKeyTest, CompanionTreeTracksRewrites) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kDeletedKeyBtree;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 5, 1)).ok());
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 9, 2)).ok());
  ASSERT_NE(ds.secondary(0)->deleted_keys, nullptr);
  LookupResult res;
  ASSERT_TRUE(
      ds.secondary(0)->deleted_keys->GetRaw(EncodeU64(1), &res).ok());
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.entry.ts, 2u);
}

TEST(DeletedKeyTest, MergeDropsEntriesInvalidatedByDeletedKeys) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kDeletedKeyBtree;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 50; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  for (uint64_t i = 1; i <= 50; i += 2) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, 100 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  // Force a deleted-key-validating merge of both secondary components.
  SecondaryIndex* index = ds.secondary(0);
  ASSERT_TRUE(RunDeletedKeyMergePicked(&ds, index, index->tree->Components(),
                                       index->deleted_keys->Components())
                  .ok());
  EXPECT_EQ(ds.secondary(0)->tree->NumDiskComponents(), 1u);
  // 25 old entries invalidated; 25 + 50 remain... the 25 updated entries'
  // old versions are dropped: 50 originals - 25 dropped + 25 new = 50.
  EXPECT_EQ(ds.secondary(0)->tree->Components()[0]->num_entries(), 50u);

  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds.QueryUserRange(1, 1, q, &res).ok());
  EXPECT_EQ(res.records.size(), 25u);
}

// The deleted-key merge consults the deleted-key trees' disk components
// only. An open transaction's rewrite sits uncommitted in the memory
// component; dropping the entry it supersedes would leave the record
// without a secondary entry once the transaction aborts.
TEST(DeletedKeyTest, MergeIgnoresUncommittedRewrites) {
  Env env(TestEnv());
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kDeletedKeyBtree;
  o.mem_budget_bytes = 1 << 30;
  Dataset ds(&env, o);
  ASSERT_TRUE(ds.Upsert(MakeTweet(1, 5, 1)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.Upsert(MakeTweet(2, 6, 2)).ok());
  ASSERT_TRUE(ds.FlushAll().ok());
  SecondaryIndex* index = ds.secondary(0);
  auto txn = ds.Begin();
  ASSERT_TRUE(ds.UpsertTxn(MakeTweet(1, 5, 3), txn.get()).ok());
  ASSERT_TRUE(RunDeletedKeyMergePicked(&ds, index, index->tree->Components(),
                                       index->deleted_keys->Components())
                  .ok());
  ASSERT_TRUE(txn->Abort().ok());
  TweetRecord r;
  ASSERT_TRUE(ds.GetById(1, &r).ok());
  EXPECT_EQ(RowsForUser(&ds, 5), 1u);
}

// --- Merge rules shared by every merge -------------------------------------
// The plain merge, merge repair (§4.4) and the deleted-key merge (§4.1)
// differ only in a per-entry step; LsmTree::MergeComponents applies the
// rest to all three: the merged ID spans the inputs, max_lsn is the inputs'
// maximum, anti-matter survives unless the merge reaches the oldest
// component, and a failed merge leaves nothing behind.
enum class MergeKind { kPlain, kRepair, kDeletedKey };

class MergeRulesTest : public ::testing::TestWithParam<MergeKind> {
 protected:
  void SetUp() override {
    EnvOptions eo = TestEnv();
    eo.fault_injector = &fault_;
    env_ = std::make_unique<Env>(eo);
    DatasetOptions o;
    o.strategy = GetParam() == MergeKind::kDeletedKey
                     ? MaintenanceStrategy::kDeletedKeyBtree
                     : MaintenanceStrategy::kValidation;
    o.mem_budget_bytes = 1 << 30;
    ds_ = std::make_unique<Dataset>(env_.get(), o);
    // Three secondary components; the newer two rewrite some records of the
    // oldest, and the middle one carries anti-matter for one of its keys.
    uint64_t time = 0;
    for (uint64_t c = 0; c < 3; c++) {
      for (uint64_t i = 1; i <= 300; i++) {
        ASSERT_TRUE(ds_->Upsert(MakeTweet(c * 1000 + i, i % 7, ++time)).ok());
      }
      for (uint64_t i = 1; c > 0 && i <= 40; i++) {
        ASSERT_TRUE(ds_->Upsert(MakeTweet(i, 7 + c, ++time)).ok());
      }
      if (c == 1) {
        auto it = index()->tree->Components().back()->tree().NewIterator();
        ASSERT_TRUE(it.SeekToFirst().ok());
        ASSERT_TRUE(it.Valid());
        index()->tree->PutAntimatter(it.key(), ds_->clock()->Tick());
      }
      ASSERT_TRUE(ds_->FlushAll().ok());
    }
    ASSERT_EQ(index()->tree->NumDiskComponents(), 3u);
  }

  SecondaryIndex* index() { return ds_->secondary(0); }

  Status Merge(const std::vector<DiskComponentPtr>& picked) {
    switch (GetParam()) {
      case MergeKind::kPlain:
        return index()->tree->MergeComponents(picked);
      case MergeKind::kRepair:
        return RunMergeRepair(ds_.get(), index(), picked);
      case MergeKind::kDeletedKey:
        return RunDeletedKeyMergePicked(ds_.get(), index(), picked, {});
    }
    return Status::InvalidArgument("unknown merge kind");
  }

  // Merges `picked`, a run starting at the newest component, and checks
  // the output's ID and max_lsn; returns the anti-matter entries it kept.
  uint64_t MergeAndCountAntimatter(
      const std::vector<DiskComponentPtr>& picked) {
    uint64_t max_lsn = 0;
    for (const auto& c : picked) max_lsn = std::max(max_lsn, c->max_lsn());
    EXPECT_GT(max_lsn, 0u);
    EXPECT_TRUE(Merge(picked).ok());
    const DiskComponentPtr merged = index()->tree->Components().front();
    EXPECT_NE(merged, picked.front());
    EXPECT_EQ(merged->id().min_ts, picked.back()->id().min_ts);
    EXPECT_EQ(merged->id().max_ts, picked.front()->id().max_ts);
    EXPECT_EQ(merged->max_lsn(), max_lsn);
    uint64_t antimatter = 0;
    auto it = merged->tree().NewIterator();
    EXPECT_TRUE(it.SeekToFirst().ok());
    while (it.Valid()) {
      if (it.antimatter()) antimatter++;
      EXPECT_TRUE(it.Next().ok());
    }
    return antimatter;
  }

  FaultInjector fault_{7};
  std::unique_ptr<Env> env_;
  std::unique_ptr<Dataset> ds_;
};

TEST_P(MergeRulesTest, PartialMergeKeepsAntimatter) {
  const auto comps = index()->tree->Components();
  EXPECT_EQ(MergeAndCountAntimatter({comps[0], comps[1]}), 1u);
  EXPECT_EQ(index()->tree->NumDiskComponents(), 2u);
}

TEST_P(MergeRulesTest, MergeReachingTheOldestDropsAntimatter) {
  EXPECT_EQ(MergeAndCountAntimatter(index()->tree->Components()), 0u);
  EXPECT_EQ(index()->tree->NumDiskComponents(), 1u);
}

// A read that fails anywhere in the merge — mid-stream, or in merge
// repair's validation reads — must not leave the output behind, in the page
// store or the buffer cache, and must leave the component list unchanged.
TEST_P(MergeRulesTest, FailedMergeReleasesItsOutput) {
  const auto picked = index()->tree->Components();
  const uint64_t pages = env_->store()->TotalPages();
  const size_t cached = env_->cache()->size();
  uint64_t failures = 0;
  // Every read early on, then sparser (deleted-key merges probe the
  // deleted-key tree per entry, so they read thousands of pages).
  for (uint64_t nth = 1; nth <= 100000; nth += 1 + nth / 16) {
    fault_.Arm(failpoints::kEnvReadPage,
               FaultSpec::ErrorNth(Status::IOError("injected"), nth));
    const Status st = Merge(picked);
    fault_.DisarmAll();
    if (st.ok()) break;
    failures++;
    ASSERT_TRUE(st.IsIOError()) << st.ToString();
    ASSERT_EQ(index()->tree->Components(), picked) << "nth " << nth;
    ASSERT_EQ(env_->store()->TotalPages(), pages) << "nth " << nth;
    ASSERT_EQ(env_->cache()->size(), cached) << "nth " << nth;
  }
  // The merge read enough pages for failures part-way through the stream,
  // then succeeded once the fault came after its last read.
  EXPECT_GE(failures, 10u);
  EXPECT_EQ(index()->tree->NumDiskComponents(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MergeRulesTest,
    ::testing::Values(MergeKind::kPlain, MergeKind::kRepair,
                      MergeKind::kDeletedKey),
    [](const auto& info) -> std::string {
      switch (info.param) {
        case MergeKind::kPlain:
          return "Plain";
        case MergeKind::kRepair:
          return "MergeRepair";
        case MergeKind::kDeletedKey:
          return "DeletedKey";
      }
      return "Unknown";
    });

// The pair merge builds the pk-index output from the primary's scan, under
// the primary output's rules: the same ID and max_lsn, the same anti-matter
// decision, the same keys and timestamps.
TEST(PairMergeTest, PkOutputFollowsThePrimaryOutputsRules) {
  Env env(TestEnv());
  DatasetOptions o = ValidationOpts(false);
  o.correlated_merges = true;
  Dataset ds(&env, o);
  uint64_t time = 0;
  for (uint64_t c = 0; c < 3; c++) {
    for (uint64_t i = 1; i <= 100; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(c * 1000 + i, 1, ++time)).ok());
    }
    // The middle component deletes ten records of the oldest.
    for (uint64_t i = 1; c == 1 && i <= 10; i++) ASSERT_TRUE(ds.Delete(i).ok());
    ASSERT_TRUE(ds.FlushAll().ok());
  }
  auto expect_twins = [&](uint64_t antimatter) {
    const DiskComponentPtr p = ds.primary()->Components().front();
    const DiskComponentPtr k = ds.primary_key_index()->Components().front();
    EXPECT_EQ(k->id().min_ts, p->id().min_ts);
    EXPECT_EQ(k->id().max_ts, p->id().max_ts);
    EXPECT_EQ(k->max_lsn(), p->max_lsn());
    ASSERT_EQ(k->num_entries(), p->num_entries());
    auto pit = p->tree().NewIterator();
    auto kit = k->tree().NewIterator();
    ASSERT_TRUE(pit.SeekToFirst().ok());
    ASSERT_TRUE(kit.SeekToFirst().ok());
    uint64_t seen = 0;
    while (pit.Valid() && kit.Valid()) {
      EXPECT_EQ(kit.key(), pit.key());
      EXPECT_EQ(kit.ts(), pit.ts());
      EXPECT_EQ(kit.antimatter(), pit.antimatter());
      EXPECT_TRUE(kit.value().empty());
      if (pit.antimatter()) seen++;
      ASSERT_TRUE(pit.Next().ok());
      ASSERT_TRUE(kit.Next().ok());
    }
    EXPECT_EQ(seen, antimatter);
  };
  auto p = ds.primary()->Components();
  auto k = ds.primary_key_index()->Components();
  // Not reaching the oldest component: the anti-matter stays in both.
  ASSERT_TRUE(
      ConcurrentMerge(&ds, {p[0], p[1]}, {k[0], k[1]}, BuildCcMethod::kNone)
          .ok());
  ASSERT_EQ(ds.primary_key_index()->NumDiskComponents(), 2u);
  expect_twins(10);
  p = ds.primary()->Components();
  k = ds.primary_key_index()->Components();
  ASSERT_TRUE(ConcurrentMerge(&ds, p, k, BuildCcMethod::kNone).ok());
  ASSERT_EQ(ds.primary_key_index()->NumDiskComponents(), 1u);
  expect_twins(0);
  EXPECT_EQ(ds.num_records(), 290u);
}

}  // namespace
}  // namespace auxlsm
