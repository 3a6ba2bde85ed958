#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "btree/btree_builder.h"
#include "core/dataset.h"
#include "env/env.h"
#include "workload/tweet_gen.h"

namespace auxlsm {
namespace {

std::string Page(Env& env, char fill) {
  return std::string(env.page_size(), fill);
}

EnvOptions SmallEnv(size_t cache_pages = 8) {
  EnvOptions o;
  o.page_size = 256;
  o.cache_pages = cache_pages;
  o.cache_shards = 1;  // single global LRU: tests assert exact evictions
  o.disk_profile = DiskProfile::Hdd();
  return o;
}

TEST(PageStoreTest, CreateAppendRead) {
  PageStore store(128);
  const uint32_t f = store.CreateFile();
  uint32_t p0, p1;
  ASSERT_TRUE(store.AppendPage(f, std::string(128, 'a'), &p0).ok());
  ASSERT_TRUE(store.AppendPage(f, std::string(128, 'b'), &p1).ok());
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(store.NumPages(f), 2u);
  PageData d;
  ASSERT_TRUE(store.ReadPage(f, 1, &d).ok());
  EXPECT_EQ((*d)[0], 'b');
}

TEST(PageStoreTest, RejectsWrongPageSize) {
  PageStore store(128);
  const uint32_t f = store.CreateFile();
  EXPECT_TRUE(store.AppendPage(f, "tiny", nullptr).IsInvalidArgument());
}

TEST(PageStoreTest, MissingFileAndRange) {
  PageStore store(128);
  PageData d;
  EXPECT_TRUE(store.ReadPage(999, 0, &d).IsNotFound());
  const uint32_t f = store.CreateFile();
  EXPECT_TRUE(store.ReadPage(f, 0, &d).IsInvalidArgument());
}

TEST(PageStoreTest, DeleteKeepsInFlightReaders) {
  PageStore store(128);
  const uint32_t f = store.CreateFile();
  ASSERT_TRUE(store.AppendPage(f, std::string(128, 'x'), nullptr).ok());
  PageData d;
  ASSERT_TRUE(store.ReadPage(f, 0, &d).ok());
  ASSERT_TRUE(store.DeleteFile(f).ok());
  EXPECT_FALSE(store.FileExists(f));
  EXPECT_EQ((*d)[0], 'x');  // still valid through the shared_ptr
}

TEST(DiskModelTest, SequentialVsRandomClassification) {
  DiskModel disk(DiskProfile::Hdd());
  disk.ChargeRead(1, 0);    // first read: random (seek)
  disk.ChargeRead(1, 1);    // next page: sequential
  disk.ChargeRead(1, 2);
  disk.ChargeRead(2, 0);    // file switch: random
  disk.ChargeRead(1, 100);  // back to file 1: random
  const IoStats s = disk.stats();
  EXPECT_EQ(s.pages_read, 5u);
  EXPECT_EQ(s.random_reads, 3u);
  EXPECT_EQ(s.sequential_reads, 2u);
}

TEST(DiskModelTest, ShortForwardSkipCostsRotationNotSeek) {
  DiskProfile p = DiskProfile::Hdd();
  DiskModel disk(p);
  disk.ChargeRead(1, 0);
  const double before = disk.stats().simulated_us;
  disk.ChargeRead(1, 5);  // forward gap of 5 pages, same file
  const double skip_cost = disk.stats().simulated_us - before;
  EXPECT_DOUBLE_EQ(skip_cost, 5 * p.read_transfer_us + p.read_transfer_us);
  EXPECT_LT(skip_cost, p.seek_us);
  // A backward jump pays the full seek.
  const double before2 = disk.stats().simulated_us;
  disk.ChargeRead(1, 1);
  EXPECT_DOUBLE_EQ(disk.stats().simulated_us - before2,
                   p.seek_us + p.read_transfer_us);
}

TEST(DiskModelTest, RereadSamePageIsSequential) {
  DiskModel disk(DiskProfile::Ssd());
  disk.ChargeRead(3, 7);
  disk.ChargeRead(3, 7);
  EXPECT_EQ(disk.stats().sequential_reads, 1u);
}

TEST(DiskModelTest, CostModelCharges) {
  DiskProfile p = DiskProfile::Hdd();
  DiskModel disk(p);
  disk.ChargeRead(1, 0);  // random: seek + transfer
  disk.ChargeRead(1, 1);  // sequential: transfer
  disk.ChargeWrite(10);
  const IoStats s = disk.stats();
  EXPECT_DOUBLE_EQ(s.simulated_us, p.seek_us + 2 * p.read_transfer_us +
                                       10 * p.write_transfer_us);
}

TEST(DiskModelTest, HddRandomReadsDominateSsd) {
  DiskModel hdd(DiskProfile::Hdd()), ssd(DiskProfile::Ssd());
  for (uint32_t i = 0; i < 100; i++) {
    // Alternating files forces full seeks on every read.
    hdd.ChargeRead(1 + (i % 2), i * 10);
    ssd.ChargeRead(1 + (i % 2), i * 10);
  }
  EXPECT_GT(hdd.stats().simulated_us, 10 * ssd.stats().simulated_us);
}

TEST(BufferCacheTest, HitAvoidsSecondCharge) {
  Env env(SmallEnv());
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  const IoStats after_first = env.stats();
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  const IoStats after_second = env.stats();
  EXPECT_EQ(after_second.pages_read, after_first.pages_read);
  EXPECT_EQ(after_second.cache_hits, after_first.cache_hits + 1);
}

TEST(BufferCacheTest, LruEvictsOldest) {
  Env env(SmallEnv(/*cache_pages=*/2));
  const uint32_t f = env.CreateFile();
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, char('a' + i)), nullptr).ok());
  }
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  ASSERT_TRUE(env.ReadPage(f, 1, &d).ok());
  ASSERT_TRUE(env.ReadPage(f, 2, &d).ok());  // evicts page 0
  const uint64_t misses_before = env.stats().cache_misses;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());  // miss again
  EXPECT_EQ(env.stats().cache_misses, misses_before + 1);
}

TEST(BufferCacheTest, ReadAheadFaultsFollowingPagesSequentially) {
  Env env(SmallEnv(/*cache_pages=*/16));
  const uint32_t f = env.CreateFile();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, 'x'), nullptr).ok());
  }
  env.cache()->Clear();  // appends write through; start cold
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d, /*readahead_pages=*/4).ok());
  const IoStats s = env.stats();
  EXPECT_EQ(s.pages_read, 5u);  // 1 demand + 4 read-ahead
  EXPECT_EQ(s.sequential_reads, 4u);
  // Following reads are cache hits.
  const uint64_t reads_before = s.pages_read;
  ASSERT_TRUE(env.ReadPage(f, 1, &d).ok());
  ASSERT_TRUE(env.ReadPage(f, 4, &d).ok());
  EXPECT_EQ(env.stats().pages_read, reads_before);
}

TEST(BufferCacheTest, ZeroCapacityDisablesCaching) {
  Env env(SmallEnv(/*cache_pages=*/0));
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  // Write-through admission is a no-op, not an insert-then-evict.
  EXPECT_EQ(env.cache()->size(), 0u);
  EXPECT_EQ(env.cache()->stats().evictions, 0u);
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  EXPECT_EQ(env.stats().pages_read, 2u);
}

TEST(BufferCacheTest, EvictDropsFilePages) {
  Env env(SmallEnv());
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  EXPECT_EQ(env.cache()->size(), 1u);
  env.cache()->Evict(f);
  EXPECT_EQ(env.cache()->size(), 0u);
}

TEST(BufferCacheTest, SetCapacityShrinks) {
  Env env(SmallEnv(/*cache_pages=*/8));
  const uint32_t f = env.CreateFile();
  PageData d;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, 'x'), nullptr).ok());
    ASSERT_TRUE(env.ReadPage(f, i, &d).ok());
  }
  EXPECT_EQ(env.cache()->size(), 6u);
  env.cache()->set_capacity(2);
  EXPECT_LE(env.cache()->size(), 2u);
}

TEST(ShardedBufferCacheTest, ShardsSplitCapacityExactly) {
  EnvOptions o = SmallEnv(/*cache_pages=*/10);
  o.cache_shards = 4;
  Env env(o);
  EXPECT_EQ(env.cache()->shards(), 4u);
  EXPECT_EQ(env.cache()->capacity(), 10u);
}

TEST(ShardedBufferCacheTest, HitMissEvictionStats) {
  EnvOptions o = SmallEnv(/*cache_pages=*/4);
  o.cache_shards = 2;
  Env env(o);
  const uint32_t f = env.CreateFile();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, char('a' + i)), nullptr).ok());
  }
  // Appends write through (and evict past capacity); start cold and count
  // evictions from here.
  env.cache()->Clear();
  const uint64_t evictions_before = env.cache()->stats().evictions;
  PageData d;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(env.ReadPage(f, i, &d).ok());
  }
  ASSERT_TRUE(env.ReadPage(f, 7, &d).ok());  // recent page: hit
  const BufferCacheStats s = env.cache()->stats();
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions - evictions_before, 8u - env.cache()->size());
  EXPECT_LE(env.cache()->size(), 4u);
}

TEST(ShardedBufferCacheTest, EvictFileDropsOnlyThatFile) {
  EnvOptions o = SmallEnv(/*cache_pages=*/32);
  o.cache_shards = 4;
  Env env(o);
  const uint32_t f1 = env.CreateFile();
  const uint32_t f2 = env.CreateFile();
  PageData d;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(env.AppendPage(f1, Page(env, 'a'), nullptr).ok());
    ASSERT_TRUE(env.AppendPage(f2, Page(env, 'b'), nullptr).ok());
    ASSERT_TRUE(env.ReadPage(f1, i, &d).ok());
    ASSERT_TRUE(env.ReadPage(f2, i, &d).ok());
  }
  EXPECT_EQ(env.cache()->size(), 12u);
  env.cache()->Evict(f1);
  EXPECT_EQ(env.cache()->size(), 6u);
  // f2's pages are all still hits.
  const uint64_t hits_before = env.cache()->stats().hits;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(env.ReadPage(f2, i, &d).ok());
  }
  EXPECT_EQ(env.cache()->stats().hits, hits_before + 6);
}

TEST(ShardedBufferCacheTest, ConcurrentReadersAndEvictors) {
  EnvOptions o = SmallEnv(/*cache_pages=*/16);
  o.cache_shards = 8;
  o.disk_profile = DiskProfile::Null();
  Env env(o);
  const uint32_t f = env.CreateFile();
  constexpr int kPages = 64;
  for (int i = 0; i < kPages; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, char('a' + i % 26)), nullptr).ok());
  }
  std::atomic<bool> failed{false};
  auto reader = [&](int seed) {
    uint64_t s = seed;
    for (int i = 0; i < 2000; i++) {
      s = s * 6364136223846793005ULL + 1;
      const uint32_t page = (s >> 33) % kPages;
      PageData d;
      if (!env.ReadPage(f, page, &d, /*readahead_pages=*/2).ok() ||
          (*d)[0] != char('a' + page % 26)) {
        failed.store(true);
      }
    }
  };
  std::thread t1(reader, 1), t2(reader, 2), t3([&]() {
    for (int i = 0; i < 200; i++) {
      env.cache()->Evict(f + 1);  // no-op file: exercises the lock paths
      env.cache()->Clear();
    }
  });
  t1.join();
  t2.join();
  t3.join();
  EXPECT_FALSE(failed.load());
  const BufferCacheStats s = env.cache()->stats();
  EXPECT_GT(s.misses, 0u);
}

TEST(EnvTest, DeleteFileEvictsAndForgets) {
  Env env(SmallEnv());
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  ASSERT_TRUE(env.DeleteFile(f).ok());
  EXPECT_TRUE(env.ReadPage(f, 0, &d).IsNotFound());
  EXPECT_TRUE(env.io()->HeadFiles().empty());
}

TEST(EnvTest, DeleteFileSweepsHeadsOnEveryQueue) {
  // Heads parked on the same file from several device queues must all be
  // forgotten when the file is deleted, not just the caller's queue.
  EnvOptions o = SmallEnv();
  o.io_queues = 3;
  Env env(o);
  const uint32_t f = env.CreateFile();
  const uint32_t g = env.CreateFile();
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
    ASSERT_TRUE(env.AppendPage(g, Page(env, 'b'), nullptr).ok());
  }
  env.cache()->Clear();  // appends write through; the reads must miss
  PageData d;
  for (uint32_t q = 0; q < 3; q++) {
    IoQueueScope scope(env.io(), q);
    ASSERT_TRUE(env.ReadPage(f, q, &d).ok());
  }
  {
    IoQueueScope scope(env.io(), 1);
    ASSERT_TRUE(env.ReadPage(g, 0, &d).ok());
  }
  ASSERT_TRUE(env.DeleteFile(f).ok());
  const auto heads = env.io()->HeadFiles();
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0], g);
}

// Retiring components through the real maintenance paths (merges and
// standalone secondary repair) deletes their files; no device queue may be
// left with a head resting on a deleted file.
TEST(EnvTest, RetiredComponentsLeakNoHeadPositions) {
  EnvOptions eo;
  eo.page_size = 4096;
  eo.cache_pages = 64;  // tiny cache: merges and repairs re-read from disk
  eo.cache_shards = 1;
  eo.io_queues = 4;
  Env env(eo);
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kValidation;
  o.merge_repair = true;  // exercises the repair retirement path too
  o.mem_budget_bytes = 64u << 10;
  o.max_mergeable_bytes = 8u << 20;
  o.maintenance_threads = 4;  // maintenance I/O spread over the 4 queues
  {
    Dataset ds(&env, o);
    TweetGenerator gen;
    Random rng(5);
    for (int i = 0; i < 4000; i++) {
      if (i > 100 && rng.Bernoulli(0.2)) {
        ASSERT_TRUE(ds.Upsert(gen.Update(rng.Uniform(gen.generated()))).ok());
      } else {
        ASSERT_TRUE(ds.Upsert(gen.Next()).ok());
      }
    }
    ASSERT_TRUE(ds.FlushAll().ok());
    ASSERT_TRUE(ds.RepairAllSecondaries().ok());
    ASSERT_GT(ds.ingest_stats().merges.load(), 0u);
    for (const uint32_t f : env.io()->HeadFiles()) {
      EXPECT_TRUE(env.store()->FileExists(f)) << "stale head on file " << f;
    }
  }
}

TEST(EnvTest, WriteChargesSequentialCost) {
  Env env(SmallEnv());
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  EXPECT_EQ(env.stats().pages_written, 1u);
  EXPECT_GT(env.stats().simulated_us, 0.0);
}

TEST(WriteThroughCacheTest, ReadAfterAppendIsFreeHit) {
  Env env(SmallEnv());
  const uint32_t f = env.CreateFile();
  ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
  // Admission charges no read and counts neither a hit nor a miss.
  const IoStats after_append = env.stats();
  EXPECT_EQ(after_append.pages_read, 0u);
  EXPECT_EQ(env.cache()->stats().hits, 0u);
  EXPECT_EQ(env.cache()->stats().misses, 0u);
  EXPECT_EQ(env.cache()->size(), 1u);

  PageData d;
  ASSERT_TRUE(env.ReadPage(f, 0, &d).ok());
  EXPECT_EQ((*d)[0], 'a');
  EXPECT_EQ(env.stats().pages_read, 0u);
  EXPECT_EQ(env.stats().simulated_us, after_append.simulated_us);
  EXPECT_EQ(env.cache()->stats().hits, 1u);
  EXPECT_EQ(env.cache()->stats().misses, 0u);
}

TEST(WriteThroughCacheTest, DeleteFileLeavesNoPageResident) {
  EnvOptions o = SmallEnv(/*cache_pages=*/32);
  o.cache_shards = 4;
  Env env(o);
  const uint32_t f = env.CreateFile();
  const uint32_t g = env.CreateFile();
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(env.AppendPage(f, Page(env, 'a'), nullptr).ok());
    ASSERT_TRUE(env.AppendPage(g, Page(env, 'b'), nullptr).ok());
  }
  ASSERT_EQ(env.cache()->size(), 10u);
  ASSERT_TRUE(env.DeleteFile(f).ok());
  EXPECT_EQ(env.cache()->size(), 5u);
  // Every survivor is g's: all five reads hit.
  PageData d;
  for (uint32_t i = 0; i < 5; i++) ASSERT_TRUE(env.ReadPage(g, i, &d).ok());
  EXPECT_EQ(env.cache()->stats().hits, 5u);
  EXPECT_EQ(env.stats().pages_read, 0u);
}

TEST(WriteThroughCacheTest, AdmissionNeverExceedsCapacity) {
  EnvOptions o = SmallEnv(/*cache_pages=*/10);
  o.cache_shards = 4;
  Env env(o);
  uint32_t files[3];
  for (auto& f : files) f = env.CreateFile();
  for (int i = 0; i < 120; i++) {
    ASSERT_TRUE(env.AppendPage(files[i % 3], Page(env, 'x'), nullptr).ok());
    ASSERT_LE(env.cache()->size(), env.cache()->capacity()) << "append " << i;
  }
  EXPECT_EQ(env.cache()->size(), env.cache()->capacity());
  EXPECT_EQ(env.cache()->stats().evictions, 120u - env.cache()->capacity());
  env.cache()->set_capacity(4);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(env.AppendPage(files[0], Page(env, 'y'), nullptr).ok());
    ASSERT_LE(env.cache()->size(), 4u);
  }
}

// A build that fails part-way (here: an injected page-append fault) must
// release the pages it did write: the abandoned builder deletes its file, so
// neither the page store nor the write-through cache keeps them.
TEST(WriteThroughCacheTest, FailedBuildReleasesItsPages) {
  FaultInjector fault(1);
  EnvOptions o = SmallEnv(/*cache_pages=*/64);
  o.fault_injector = &fault;
  Env env(o);
  auto build = [&](int entries) -> Status {
    BtreeBuilder b(&env);
    for (int i = 0; i < entries; i++) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%08d", i);
      AUXLSM_RETURN_NOT_OK(b.Add(key, std::string(24, 'v'), i, false));
    }
    BtreeMeta meta;
    return b.Finish(&meta);
  };
  ASSERT_TRUE(build(50).ok());  // a finished tree keeps its pages
  const uint64_t pages_before = env.store()->TotalPages();
  const size_t cached_before = env.cache()->size();
  ASSERT_GT(pages_before, 0u);
  ASSERT_EQ(cached_before, pages_before);

  fault.Arm(failpoints::kEnvAppendPage,
            FaultSpec::ErrorNth(Status::IOError("injected"), 4));
  EXPECT_TRUE(build(200).IsIOError());
  EXPECT_EQ(fault.site_stats(failpoints::kEnvAppendPage).fires, 1u);
  EXPECT_EQ(env.store()->TotalPages(), pages_before);
  EXPECT_EQ(env.cache()->size(), cached_before);
}

}  // namespace
}  // namespace auxlsm
