// Crash recovery (§2.2/§5.2): the dataset is destroyed while the Env (disk
// pages), the WAL, and a catalog checkpoint survive; Dataset::Recover must
// rebuild an equivalent dataset by replaying committed work.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <tuple>

#include "common/coding.h"
#include "common/random.h"
#include "core/dataset.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 16;
  o.disk_profile = DiskProfile::Null();
  return o;
}

DatasetOptions Opts(MaintenanceStrategy s) {
  DatasetOptions o;
  o.strategy = s;
  o.mem_budget_bytes = 1 << 30;
  return o;
}

TweetRecord MakeTweet(uint64_t id, uint64_t user, uint64_t time) {
  TweetRecord r;
  r.id = id;
  r.user_id = user;
  r.location = "MA";
  r.creation_time = time;
  r.message = std::string(30, 'r');
  return r;
}

class RecoveryStrategyTest
    : public ::testing::TestWithParam<MaintenanceStrategy> {};

TEST_P(RecoveryStrategyTest, ReplaysUnflushedCommittedWrites) {
  Env env(TestEnv());
  Wal shared_wal;  // stands in for the durable log disk
  DatasetCatalog catalog;
  {
    Dataset ds(&env, Opts(GetParam()));
    for (uint64_t i = 1; i <= 50; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    catalog = ds.Checkpoint();
    // Post-checkpoint writes that only live in the memtable + WAL.
    for (uint64_t i = 51; i <= 70; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 2, i)).ok());
    }
    ASSERT_TRUE(ds.Delete(1).ok());
    // Copy the WAL out before the "crash" destroys the dataset.
    for (const auto& r : ds.wal()->ReadFrom(kInvalidLsn)) {
      shared_wal.Append(r);
    }
  }  // crash: dataset (memtables!) gone; env + wal + catalog survive

  RecoveryStats stats;
  auto recovered =
      Dataset::Recover(&env, &shared_wal, catalog, Opts(GetParam()), &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Dataset* ds = recovered->get();
  EXPECT_GT(stats.ops_replayed, 0u);
  EXPECT_EQ(ds->num_records(), 69u);  // 70 written, 1 deleted
  TweetRecord r;
  EXPECT_TRUE(ds->GetById(1, &r).IsNotFound());
  ASSERT_TRUE(ds->GetById(60, &r).ok());
  EXPECT_EQ(r.user_id, 2u);
  // Secondary queries see replayed data too.
  SecondaryQueryOptions q;
  QueryResult res;
  ASSERT_TRUE(ds->QueryUserRange(2, 2, q, &res).ok());
  EXPECT_EQ(res.records.size(), 20u);
}

TEST_P(RecoveryStrategyTest, UncommittedTxnNotReplayed) {
  Env env(TestEnv());
  Wal shared_wal;
  DatasetCatalog catalog;
  {
    Dataset ds(&env, Opts(GetParam()));
    ASSERT_TRUE(ds.Upsert(MakeTweet(1, 1, 1)).ok());
    ASSERT_TRUE(ds.FlushAll().ok());
    catalog = ds.Checkpoint();
    // An explicit transaction writes but never commits before the crash.
    auto txn = ds.Begin();
    ASSERT_TRUE(ds.UpsertTxn(MakeTweet(2, 2, 2), txn.get()).ok());
    for (const auto& r : ds.wal()->ReadFrom(kInvalidLsn)) {
      shared_wal.Append(r);
    }
    // txn destructor aborts, but the crash already copied the log without a
    // commit record — recovery must skip it either way.
  }
  RecoveryStats stats;
  auto recovered =
      Dataset::Recover(&env, &shared_wal, catalog, Opts(GetParam()), &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->num_records(), 1u);
  TweetRecord r;
  EXPECT_TRUE((*recovered)->GetById(2, &r).IsNotFound());
}

/// What redo must rebuild exactly: one tree's memory entries (key, value,
/// ts, anti-matter) and its disk components' bitmaps (empty: none).
struct TreeWriteState {
  std::string name;
  std::vector<std::tuple<std::string, std::string, Timestamp, bool>> mem;
  std::vector<std::vector<uint64_t>> bitmaps;
  bool operator==(const TreeWriteState&) const = default;
};

std::vector<TreeWriteState> WriteState(Dataset* ds) {
  std::vector<LsmTree*> trees = {ds->primary(), ds->primary_key_index()};
  for (const auto& s : ds->secondaries()) {
    trees.push_back(s->tree.get());
    if (s->deleted_keys != nullptr) trees.push_back(s->deleted_keys.get());
  }
  std::vector<TreeWriteState> out;
  for (LsmTree* t : trees) {
    TreeWriteState st;
    st.name = t->name();
    for (const OwnedEntry& e : t->MemSnapshot()) {
      st.mem.emplace_back(e.key, e.value, e.ts, e.antimatter);
    }
    for (const auto& c : t->Components()) {
      st.bitmaps.push_back(c->bitmap() != nullptr ? c->bitmap()->Words()
                                                  : std::vector<uint64_t>{});
    }
    out.push_back(std::move(st));
  }
  return out;
}

std::tuple<bool, uint64_t, uint64_t> MemFilter(Dataset* ds) {
  const RangeFilter* f = ds->primary()->mem_range_filter();
  return {f->has_value(), f->min(), f->max()};
}

// Redo runs the same write path as the original ops, so after a crash every
// tree's memory component, every bitmap and the memory range filter come
// back exactly as they were — across upserts that change or keep the user,
// inserts (duplicates too) and deletes (missing keys too).
TEST_P(RecoveryStrategyTest, RedoRebuildsTheWriteStateExactly) {
  Env env(TestEnv());
  Wal shared_wal;
  DatasetCatalog catalog;
  std::vector<TreeWriteState> before;
  std::tuple<bool, uint64_t, uint64_t> filter_before;
  {
    Dataset ds(&env, Opts(GetParam()));
    std::map<uint64_t, uint64_t> users;  // live id -> user
    uint64_t time = 0;
    for (uint64_t id = 1; id <= 80; id++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 10, ++time)).ok());
      users[id] = id % 10;
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    catalog = ds.Checkpoint();
    Random rng(18);
    for (int i = 0; i < 600; i++) {
      const uint64_t id = 1 + rng.Uniform(120);
      const double dice = rng.NextDouble();
      const auto it = users.find(id);
      if (dice < 0.2) {
        ASSERT_TRUE(ds.Delete(id).ok());
        users.erase(id);
      } else if (dice < 0.4) {
        const uint64_t user = rng.Uniform(10);
        bool inserted = false;
        ASSERT_TRUE(ds.Insert(MakeTweet(id, user, ++time), &inserted).ok());
        ASSERT_EQ(inserted, it == users.end());
        if (inserted) users[id] = user;
      } else if (dice < 0.6 && it != users.end()) {
        ASSERT_TRUE(ds.Upsert(MakeTweet(id, it->second, ++time)).ok());
      } else {
        const uint64_t user = rng.Uniform(10);
        ASSERT_TRUE(ds.Upsert(MakeTweet(id, user, ++time)).ok());
        users[id] = user;
      }
    }
    before = WriteState(&ds);
    filter_before = MemFilter(&ds);
    for (const auto& r : ds.wal()->ReadFrom(kInvalidLsn)) {
      shared_wal.Append(r);
    }
  }
  if (GetParam() == MaintenanceStrategy::kMutableBitmap) {
    // The checkpointed bitmaps are clear; redo must set the flipped bits.
    uint64_t set = 0;
    for (const auto& words : before[0].bitmaps) {
      for (uint64_t w : words) set += std::popcount(w);
    }
    EXPECT_GT(set, 0u);
  }
  auto recovered =
      Dataset::Recover(&env, &shared_wal, catalog, Opts(GetParam()), nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const std::vector<TreeWriteState> after = WriteState(recovered->get());
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); i++) {
    SCOPED_TRACE(before[i].name);
    EXPECT_FALSE(before[i].mem.empty());
    EXPECT_EQ(after[i].mem, before[i].mem);
    EXPECT_EQ(after[i].bitmaps, before[i].bitmaps);
  }
  EXPECT_EQ(MemFilter(recovered->get()), filter_before);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, RecoveryStrategyTest,
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

TEST(RecoveryBitmapTest, BitmapChangesAfterCheckpointAreRedone) {
  Env env(TestEnv());
  Wal shared_wal;
  DatasetCatalog catalog;
  uint64_t expected_records = 0;
  {
    Dataset ds(&env, Opts(MaintenanceStrategy::kMutableBitmap));
    for (uint64_t i = 1; i <= 40; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    catalog = ds.Checkpoint();
    // Post-checkpoint deletes flip bitmap bits of flushed components; the
    // bits themselves are volatile (no-force) but the WAL records carry the
    // update bit.
    for (uint64_t i = 1; i <= 10; i++) {
      ASSERT_TRUE(ds.Delete(i).ok());
    }
    expected_records = ds.num_records();
    for (const auto& r : ds.wal()->ReadFrom(kInvalidLsn)) {
      shared_wal.Append(r);
    }
  }
  // The catalog's checkpointed bitmaps do NOT include the deletes (they were
  // taken before). Recovery must redo them from the log.
  RecoveryStats stats;
  auto recovered = Dataset::Recover(&env, &shared_wal, catalog,
                                    Opts(MaintenanceStrategy::kMutableBitmap),
                                    &stats);
  ASSERT_TRUE(recovered.ok());
  Dataset* ds = recovered->get();
  EXPECT_EQ(ds->num_records(), expected_records);
  EXPECT_EQ(expected_records, 30u);
  TweetRecord r;
  EXPECT_TRUE(ds->GetById(5, &r).IsNotFound());
  // The recovered component's bitmap reflects the redone deletes.
  const auto comps = ds->primary()->Components();
  ASSERT_FALSE(comps.empty());
  EXPECT_EQ(comps.back()->bitmap()->CountSet(), 10u);
}

// A logged update bit whose target component cannot record it (no bitmap)
// must fail recovery loudly: returning OK would silently resurrect the old
// version the log says was superseded.
TEST(RecoveryBitmapTest, MissingBitmapOnRedoIsCorruption) {
  Env env(TestEnv());
  Wal shared_wal;
  DatasetCatalog catalog;
  {
    Dataset ds(&env, Opts(MaintenanceStrategy::kMutableBitmap));
    for (uint64_t i = 1; i <= 20; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    catalog = ds.Checkpoint();
    ASSERT_TRUE(ds.Delete(3).ok());  // flips a bit; logged with update_bit
    for (const auto& r : ds.wal()->ReadFrom(kInvalidLsn)) {
      shared_wal.Append(r);
    }
  }
  // Corrupt the checkpoint: the catalog loses its bitmaps, as if the
  // per-component metadata were damaged in the crash.
  for (auto& e : catalog.primary) e.has_bitmap = false;
  for (auto& e : catalog.primary_key) {
    e.has_bitmap = false;
    e.shares_primary_bitmap = false;
  }
  RecoveryStats stats;
  auto recovered = Dataset::Recover(&env, &shared_wal, catalog,
                                    Opts(MaintenanceStrategy::kMutableBitmap),
                                    &stats);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsCorruption())
      << recovered.status().ToString();
}

// A catalog whose primary and pk-index lists do not line up (here the pk
// index lost its older component) cannot share bitmaps by position. Recover
// realigns it with one full pair merge: the pk index is rebuilt from the
// primary's scan and shares the merged primary's bitmap, so later deletes,
// found through the pk index, reach every record.
TEST(RecoveryBitmapTest, MisalignedCatalogIsRealignedAsOnePair) {
  Env env(TestEnv());
  Wal shared_wal;
  DatasetCatalog catalog;
  {
    Dataset ds(&env, Opts(MaintenanceStrategy::kMutableBitmap));
    for (uint64_t i = 1; i <= 200; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
      if (i % 100 == 0) {
        ASSERT_TRUE(ds.FlushAll().ok());
      }
    }
    for (uint64_t i = 1; i <= 10; i++) ASSERT_TRUE(ds.Delete(i).ok());
    catalog = ds.Checkpoint();
    for (const auto& r : ds.wal()->ReadFrom(kInvalidLsn)) {
      shared_wal.Append(r);
    }
  }
  ASSERT_EQ(catalog.primary_key.size(), 2u);
  catalog.primary_key.pop_back();
  auto recovered = Dataset::Recover(
      &env, &shared_wal, catalog, Opts(MaintenanceStrategy::kMutableBitmap),
      nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Dataset* ds = recovered->get();
  ASSERT_EQ(ds->primary()->NumDiskComponents(), 1u);
  ASSERT_EQ(ds->primary_key_index()->NumDiskComponents(), 1u);
  EXPECT_EQ(ds->primary_key_index()->Components()[0]->bitmap(),
            ds->primary()->Components()[0]->bitmap());
  EXPECT_EQ(ds->num_records(), 190u);
  for (uint64_t i = 11; i <= 20; i++) ASSERT_TRUE(ds->Delete(i).ok());
  ASSERT_TRUE(ds->FlushAll().ok());
  EXPECT_EQ(ds->num_records(), 180u);
  ScanResult scan;
  ASSERT_TRUE(ds->ScanTimeRange(0, UINT64_MAX, &scan).ok());
  EXPECT_EQ(scan.records_matched, 180u);
}

TEST(RecoveryCatalogTest, CheckpointCapturesFiltersAndRepairedTs) {
  Env env(TestEnv());
  DatasetOptions o = Opts(MaintenanceStrategy::kValidation);
  Dataset ds(&env, o);
  for (uint64_t i = 1; i <= 30; i++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, 2000 + i)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  ASSERT_TRUE(ds.RepairAllSecondaries().ok());
  const DatasetCatalog catalog = ds.Checkpoint();
  ASSERT_EQ(catalog.primary.size(), 1u);
  EXPECT_TRUE(catalog.primary[0].has_range_filter);
  EXPECT_EQ(catalog.primary[0].filter_min, 2001u);
  EXPECT_EQ(catalog.primary[0].filter_max, 2030u);
  ASSERT_EQ(catalog.secondaries.size(), 1u);
  ASSERT_EQ(catalog.secondaries[0].size(), 1u);
  EXPECT_GT(catalog.secondaries[0][0].repaired_ts, 0u);
  EXPECT_GT(catalog.max_component_lsn, kInvalidLsn);
}

TEST(RecoveryCatalogTest, RecoveredFiltersStillPruneScans) {
  Env env(TestEnv());
  Wal shared_wal;
  DatasetCatalog catalog;
  {
    Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
    for (uint64_t i = 1; i <= 60; i++) {
      ASSERT_TRUE(ds.Upsert(MakeTweet(i, 1, i)).ok());
      if (i % 20 == 0) ASSERT_TRUE(ds.FlushAll().ok());
    }
    catalog = ds.Checkpoint();
    for (const auto& r : ds.wal()->ReadFrom(kInvalidLsn)) {
      shared_wal.Append(r);
    }
  }
  auto recovered = Dataset::Recover(&env, &shared_wal, catalog,
                                    Opts(MaintenanceStrategy::kEager), nullptr);
  ASSERT_TRUE(recovered.ok());
  ScanResult res;
  ASSERT_TRUE((*recovered)->ScanTimeRange(1, 20, &res).ok());
  EXPECT_EQ(res.records_matched, 20u);
  EXPECT_GT(res.components_pruned, 0u);  // filters survived the crash
}

// --- WAL torn-tail tolerance (PR 6) ----------------------------------------
// A crash tears the log mid-append, so a bad FINAL frame is the normal
// residue of a crash and must truncate cleanly; a bad frame with decodable
// records after it is damage to already-durable history and must fail
// recovery loudly.

namespace {

LogRecord MakeLogRecord(Lsn lsn, uint64_t txn, uint64_t id) {
  LogRecord r;
  r.lsn = lsn;
  r.txn_id = txn;
  r.type = LogRecordType::kUpsert;
  r.key = "key" + std::to_string(id);
  r.value = std::string(24, char('a' + id % 26));
  r.ts = 10 + id;
  return r;
}

std::string EncodeStream(int n) {
  std::string stream;
  for (int i = 0; i < n; i++) {
    stream += MakeLogRecord(i + 1, 1, i).Encode();
  }
  return stream;
}

}  // namespace

TEST(WalTornTailTest, IncompleteFinalFrameTruncatesCleanly) {
  std::string stream = EncodeStream(3);
  const std::string last = MakeLogRecord(3, 1, 2).Encode();
  // Tear the final frame: drop its trailing 5 bytes.
  stream.resize(stream.size() - 5);

  std::vector<LogRecord> out;
  RecoveryStats stats;
  const Status st = DecodeWalStream(Slice(stream), &out, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].lsn, 1u);
  EXPECT_EQ(out[1].lsn, 2u);
  EXPECT_EQ(stats.torn_tail_bytes, last.size() - 5);
}

TEST(WalTornTailTest, ChecksumFailingFinalFrameTruncatesCleanly) {
  std::string stream = EncodeStream(3);
  const std::string last = MakeLogRecord(3, 1, 2).Encode();
  // Flip a payload byte of the final (complete) frame: its checksum fails
  // but nothing decodable follows, so it is tail residue, not damage.
  stream[stream.size() - last.size() + 12] ^= 0x40;

  std::vector<LogRecord> out;
  RecoveryStats stats;
  const Status st = DecodeWalStream(Slice(stream), &out, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.torn_tail_bytes, last.size());
}

TEST(WalTornTailTest, SubHeaderTailResidueTruncatesCleanly) {
  std::string stream = EncodeStream(2);
  // A crash can leave fewer bytes than even the frame header.
  stream += std::string(3, '\x7f');

  std::vector<LogRecord> out;
  RecoveryStats stats;
  ASSERT_TRUE(DecodeWalStream(Slice(stream), &out, &stats).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.torn_tail_bytes, 3u);
}

TEST(WalTornTailTest, LengthPrefixNearFourGiBTruncatesCleanly) {
  // 8 + len overflows 32 bits for these lengths; the decoder must still see
  // that the frame runs past the stream, not read the body.
  for (const uint32_t len : {0xFFFFFFF8u, 0xFFFFFFFFu}) {
    std::string stream = EncodeStream(2);
    const size_t good = stream.size();
    std::string header(8, '\0');
    EncodeFixed32(header.data(), len);
    stream += header;
    stream += std::string(5, 'x');

    std::vector<LogRecord> out;
    RecoveryStats stats;
    const Status st = DecodeWalStream(Slice(stream), &out, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(stats.torn_tail_bytes, stream.size() - good) << len;
  }
}

TEST(WalTornTailTest, MidLogCorruptionFailsLoudly) {
  std::string stream = EncodeStream(3);
  const std::string first = MakeLogRecord(1, 1, 0).Encode();
  // Flip a payload byte of the FIRST frame: records decode after it, so
  // this is damaged durable history — recovery must refuse, with the
  // corrupt byte offset in the message.
  stream[12] ^= 0x40;
  ASSERT_LT(size_t{12}, first.size());

  std::vector<LogRecord> out;
  RecoveryStats stats;
  const Status st = DecodeWalStream(Slice(stream), &out, &stats);
  ASSERT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("mid-log corruption at byte 0"),
            std::string::npos)
      << st.ToString();
  EXPECT_EQ(stats.torn_tail_bytes, 0u);
}

}  // namespace
}  // namespace auxlsm
