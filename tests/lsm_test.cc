#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "common/random.h"
#include "format/key_codec.h"
#include "lsm/lsm_tree.h"

namespace auxlsm {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.page_size = 512;
  o.cache_pages = 1 << 16;
  o.disk_profile = DiskProfile::Null();
  return o;
}

LsmTreeOptions TreeOpts() {
  LsmTreeOptions o;
  o.build_bloom = true;
  o.build_blocked_bloom = true;
  return o;
}

TEST(BitmapTest, SetTestUnsetCount) {
  Bitmap b(200);
  EXPECT_FALSE(b.Test(100));
  EXPECT_FALSE(b.Set(100));  // previous value
  EXPECT_TRUE(b.Test(100));
  EXPECT_TRUE(b.Set(100));  // already set
  EXPECT_EQ(b.CountSet(), 1u);
  EXPECT_TRUE(b.Unset(100));
  EXPECT_FALSE(b.Test(100));
  EXPECT_EQ(b.CountSet(), 0u);
}

TEST(BitmapTest, SnapshotIsIndependent) {
  Bitmap b(64);
  b.Set(5);
  Bitmap snap = Bitmap::SnapshotOf(b);
  b.Set(6);
  EXPECT_TRUE(snap.Test(5));
  EXPECT_FALSE(snap.Test(6));
}

TEST(BitmapTest, WordsRoundTripAndUnion) {
  Bitmap a(128);
  a.Set(0);
  a.Set(127);
  Bitmap b = Bitmap::FromWords(128, a.Words());
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(127));
  Bitmap c(128);
  c.Set(64);
  c.UnionWith(a);
  EXPECT_EQ(c.CountSet(), 3u);
}

TEST(BitmapTest, ConcurrentSetsDoNotLoseUpdates) {
  Bitmap b(100000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&b, t]() {
      for (uint64_t i = t; i < 100000; i += 4) b.Set(i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(b.CountSet(), 100000u);
}

TEST(RangeFilterTest, ExpandOverlapsMerge) {
  RangeFilter f;
  EXPECT_FALSE(f.has_value());
  EXPECT_FALSE(f.Overlaps(0, ~0ull));  // empty filter never overlaps
  f.Expand(10);
  f.Expand(20);
  EXPECT_TRUE(f.Overlaps(15, 16));
  EXPECT_TRUE(f.Overlaps(20, 30));
  EXPECT_FALSE(f.Overlaps(21, 30));
  EXPECT_FALSE(f.Overlaps(0, 9));
  RangeFilter g;
  g.Expand(100);
  g.Merge(f);
  EXPECT_TRUE(g.Overlaps(10, 10));
  EXPECT_TRUE(g.Overlaps(100, 100));
}

TEST(ComponentIdTest, OrderingAndOverlap) {
  ComponentId a{1, 10}, b{11, 20}, c{5, 15};
  EXPECT_TRUE(a.OlderThan(b));
  EXPECT_FALSE(b.OlderThan(a));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_TRUE(c.Overlaps(b));
  EXPECT_FALSE(a.Overlaps(b));
  EXPECT_EQ(a.ToString(), "1-10");
}

TEST(MergePolicyTest, TieringTriggersAtSizeRatio) {
  TieringMergePolicy p(1.2, 1u << 30);
  // Newest-first sizes: young components too small to outweigh the oldest.
  EXPECT_TRUE(p.PickMerge({{10}, {100}}).empty());
  // 130 >= 1.2 * 100: merge everything.
  const MergeRange r = p.PickMerge({{60}, {70}, {100}});
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 3u);
}

TEST(MergePolicyTest, TieringRespectsMaxMergeableSize) {
  TieringMergePolicy p(1.2, /*max=*/50);
  // Oldest component exceeds the cap: it is frozen; the two young ones merge
  // only if they satisfy the ratio among themselves.
  const MergeRange r = p.PickMerge({{40}, {30}, {1000}});
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 2u);
  EXPECT_TRUE(p.PickMerge({{10}, {30}, {1000}}).empty());
}

TEST(MergePolicyTest, TieringPrefersLongestSequence) {
  TieringMergePolicy p(1.0, 1u << 30);
  const MergeRange r = p.PickMerge({{50}, {50}, {50}, {100}});
  EXPECT_EQ(r.count(), 4u);  // 150 >= 100 merges all four
}

TEST(MergePolicyTest, LevelingMergesOverflowingLevel) {
  LevelingMergePolicy p(10.0, 100);
  EXPECT_TRUE(p.PickMerge({{50}, {500}}).empty());
  const MergeRange r = p.PickMerge({{150}, {500}});
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 2u);
}

TEST(MergePolicyTest, NoMergePolicyNeverMerges) {
  NoMergePolicy p;
  EXPECT_TRUE(p.PickMerge({{100}, {100}, {100}}).empty());
}

TEST(LsmTreeTest, PutGetThroughMemtable) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "one", 1);
  OwnedEntry e;
  ASSERT_TRUE(tree.Get(EncodeU64(1), &e).ok());
  EXPECT_EQ(e.value, "one");
  EXPECT_TRUE(tree.Get(EncodeU64(2), &e).IsNotFound());
}

TEST(LsmTreeTest, FlushCreatesComponentWithId) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "a", 5);
  tree.Put(EncodeU64(2), "b", 9);
  ASSERT_TRUE(tree.Flush().ok());
  ASSERT_EQ(tree.NumDiskComponents(), 1u);
  const auto comps = tree.Components();
  EXPECT_EQ(comps[0]->id().min_ts, 5u);
  EXPECT_EQ(comps[0]->id().max_ts, 9u);
  EXPECT_TRUE(tree.memtable()->empty());
  OwnedEntry e;
  ASSERT_TRUE(tree.Get(EncodeU64(1), &e).ok());
  EXPECT_EQ(e.value, "a");
}

TEST(LsmTreeTest, NewerComponentOverridesOlder) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "old", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(1), "new", 2);
  ASSERT_TRUE(tree.Flush().ok());
  OwnedEntry e;
  ASSERT_TRUE(tree.Get(EncodeU64(1), &e).ok());
  EXPECT_EQ(e.value, "new");
}

TEST(LsmTreeTest, AntimatterHidesOlderEntry) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "v", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.PutAntimatter(EncodeU64(1), 2);
  OwnedEntry e;
  EXPECT_TRUE(tree.Get(EncodeU64(1), &e).IsNotFound());
  LookupResult raw;
  ASSERT_TRUE(tree.GetRaw(EncodeU64(1), &raw).ok());
  EXPECT_TRUE(raw.found);
  EXPECT_TRUE(raw.entry.antimatter);
}

TEST(LsmTreeTest, MergeAllReconcilesAndDropsAntimatter) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  for (uint64_t i = 0; i < 100; i++) tree.Put(EncodeU64(i), "v0", i + 1);
  ASSERT_TRUE(tree.Flush().ok());
  for (uint64_t i = 0; i < 50; i++) tree.Put(EncodeU64(i), "v1", 200 + i);
  for (uint64_t i = 50; i < 60; i++) tree.PutAntimatter(EncodeU64(i), 300 + i);
  ASSERT_TRUE(tree.Flush().ok());
  ASSERT_EQ(tree.NumDiskComponents(), 2u);
  ASSERT_TRUE(tree.MergeAll().ok());
  ASSERT_EQ(tree.NumDiskComponents(), 1u);
  // 100 - 10 deleted records remain; anti-matter physically dropped.
  EXPECT_EQ(tree.Components()[0]->num_entries(), 90u);
  OwnedEntry e;
  ASSERT_TRUE(tree.Get(EncodeU64(0), &e).ok());
  EXPECT_EQ(e.value, "v1");
  EXPECT_TRUE(tree.Get(EncodeU64(55), &e).IsNotFound());
  ASSERT_TRUE(tree.Get(EncodeU64(80), &e).ok());
  EXPECT_EQ(e.value, "v0");
}

TEST(LsmTreeTest, PartialMergeKeepsAntimatter) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "v", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.PutAntimatter(EncodeU64(1), 2);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(2), "x", 3);
  ASSERT_TRUE(tree.Flush().ok());
  // Merge only the two newest components: anti-matter must survive to keep
  // shadowing the oldest component's entry.
  const auto comps = tree.Components();
  ASSERT_TRUE(tree.MergeComponents({comps[0], comps[1]}).ok());
  OwnedEntry e;
  EXPECT_TRUE(tree.Get(EncodeU64(1), &e).IsNotFound());
}

TEST(LsmTreeTest, MergedComponentIdSpansInputs) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "a", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(2), "b", 7);
  ASSERT_TRUE(tree.Flush().ok());
  ASSERT_TRUE(tree.MergeAll().ok());
  EXPECT_EQ(tree.Components()[0]->id().min_ts, 1u);
  EXPECT_EQ(tree.Components()[0]->id().max_ts, 7u);
}

TEST(LsmTreeTest, BitmapInvalidEntriesDroppedInMerge) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.attach_bitmap = true;
  LsmTree tree(&env, opts);
  for (uint64_t i = 0; i < 10; i++) tree.Put(EncodeU64(i), "v", i + 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(100), "w", 50);
  ASSERT_TRUE(tree.Flush().ok());
  // Mark entries 3 and 4 of the older component invalid.
  auto comps = tree.Components();
  comps[1]->bitmap()->Set(3);
  comps[1]->bitmap()->Set(4);
  ASSERT_TRUE(tree.MergeAll().ok());
  EXPECT_EQ(tree.Components()[0]->num_entries(), 9u);  // 11 - 2
  OwnedEntry e;
  EXPECT_TRUE(tree.Get(EncodeU64(3), &e).IsNotFound());
  ASSERT_TRUE(tree.Get(EncodeU64(5), &e).ok());
}

TEST(LsmTreeTest, GetRawReportsOrdinalForBitmaps) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.attach_bitmap = true;
  LsmTree tree(&env, opts);
  for (uint64_t i = 0; i < 10; i++) tree.Put(EncodeU64(i), "v", i + 1);
  ASSERT_TRUE(tree.Flush().ok());
  LookupResult res;
  ASSERT_TRUE(tree.GetRaw(EncodeU64(7), &res).ok());
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.ordinal, 7u);
  // Marking it invalid makes a bitmap-respecting lookup miss.
  res.component->bitmap()->Set(res.ordinal);
  OwnedEntry e;
  EXPECT_TRUE(tree.Get(EncodeU64(7), &e).IsNotFound());
}

TEST(LsmTreeTest, PickedMergeFollowsPolicy) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.merge_policy = std::make_shared<TieringMergePolicy>(1.0, 1u << 30);
  LsmTree tree(&env, opts);
  for (int c = 0; c < 2; c++) {
    for (uint64_t i = 0; i < 50; i++) {
      tree.Put(EncodeU64(c * 1000 + i), "v", c * 100 + i + 1);
    }
    ASSERT_TRUE(tree.Flush().ok());
  }
  std::vector<DiskComponentPtr> picked;
  ASSERT_TRUE(tree.PickMergeCandidates(&picked));
  EXPECT_EQ(picked.size(), 2u);
  ASSERT_TRUE(tree.MergeComponents(picked).ok());
  EXPECT_EQ(tree.NumDiskComponents(), 1u);
  EXPECT_FALSE(tree.PickMergeCandidates(&picked));
}

TEST(LsmTreeTest, RetiredComponentFilesDeleted) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  tree.Put(EncodeU64(1), "a", 1);
  ASSERT_TRUE(tree.Flush().ok());
  tree.Put(EncodeU64(2), "b", 2);
  ASSERT_TRUE(tree.Flush().ok());
  const uint32_t old_file = tree.Components()[1]->meta().file_id;
  ASSERT_TRUE(env.store()->FileExists(old_file));
  ASSERT_TRUE(tree.MergeAll().ok());
  EXPECT_FALSE(env.store()->FileExists(old_file));
}

TEST(LsmTreeTest, RangeFilterFromMemFilterOnFlush) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.maintain_range_filter = true;
  LsmTree tree(&env, opts);
  tree.Put(EncodeU64(1), "a", 1);
  tree.mem_range_filter()->Expand(2015);
  tree.mem_range_filter()->Expand(2018);
  ASSERT_TRUE(tree.Flush().ok());
  const auto& f = tree.Components()[0]->range_filter();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->min(), 2015u);
  EXPECT_EQ(f->max(), 2018u);
  // The memory filter resets after flush.
  EXPECT_FALSE(tree.mem_range_filter()->has_value());
}

TEST(MergeCursorTest, BoundsAndReconciliation) {
  Env env(TestEnv());
  LsmTree tree(&env, TreeOpts());
  for (uint64_t i = 0; i < 20; i++) tree.Put(EncodeU64(i), "v0", i + 1);
  ASSERT_TRUE(tree.Flush().ok());
  for (uint64_t i = 5; i < 10; i++) tree.Put(EncodeU64(i), "v1", 100 + i);
  ASSERT_TRUE(tree.Flush().ok());

  MergeCursor::Options mo;
  mo.lower_bound = EncodeU64(3);
  mo.upper_bound = EncodeU64(12);
  MergeCursor cursor(tree.Components(), mo);
  ASSERT_TRUE(cursor.Init().ok());
  uint64_t count = 0;
  uint64_t v1_count = 0;
  while (cursor.Valid()) {
    const uint64_t k = DecodeU64(cursor.key());
    EXPECT_GE(k, 3u);
    EXPECT_LE(k, 12u);
    if (cursor.value() == Slice("v1")) v1_count++;
    count++;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(count, 10u);     // keys 3..12, one version each
  EXPECT_EQ(v1_count, 5u);   // keys 5..9 updated
}

TEST(LsmTreeStressTest, RandomOpsMatchReferenceModel) {
  Env env(TestEnv());
  LsmTreeOptions opts = TreeOpts();
  opts.merge_policy = std::make_shared<TieringMergePolicy>(1.2, 1u << 30);
  LsmTree tree(&env, opts);
  std::map<uint64_t, std::string> model;
  Random rng(42);
  Timestamp ts = 0;
  for (int i = 0; i < 5000; i++) {
    const uint64_t k = rng.Uniform(500);
    ts++;
    if (rng.Bernoulli(0.2)) {
      tree.PutAntimatter(EncodeU64(k), ts);
      model.erase(k);
    } else {
      const std::string v = "v" + std::to_string(i);
      tree.Put(EncodeU64(k), v, ts);
      model[k] = v;
    }
    if (i % 500 == 499) {
      ASSERT_TRUE(tree.Flush().ok());
      std::vector<DiskComponentPtr> picked;
      while (tree.PickMergeCandidates(&picked)) {
        ASSERT_TRUE(tree.MergeComponents(picked).ok());
      }
    }
  }
  for (uint64_t k = 0; k < 500; k++) {
    OwnedEntry e;
    const Status st = tree.Get(EncodeU64(k), &e);
    if (model.count(k)) {
      ASSERT_TRUE(st.ok()) << "key " << k;
      EXPECT_EQ(e.value, model[k]);
    } else {
      EXPECT_TRUE(st.IsNotFound()) << "key " << k;
    }
  }
}

}  // namespace
}  // namespace auxlsm
