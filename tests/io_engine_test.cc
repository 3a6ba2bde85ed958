// Multi-queue simulated I/O engine (src/io/): legacy parity, determinism,
// overlap accounting, queue affinity, and the end-to-end property that
// device concurrency shortens *simulated* maintenance time.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/dataset.h"
#include "env/env.h"
#include "io/io_engine.h"
#include "workload/tweet_gen.h"

namespace auxlsm {
namespace {

// A recorded device access: the op stream both the legacy DiskModel and the
// IoEngine replay in the parity tests.
struct TraceOp {
  enum Kind { kRead, kWrite, kHit, kMiss, kForget } kind;
  uint32_t file = 0;
  uint32_t page = 0;
  uint64_t n = 1;
  uint32_t queue = 0;  // affinity used by the multi-queue tests
};

std::vector<TraceOp> RecordedTrace() {
  // Deterministic pseudo-random mix of sequential runs, file switches,
  // forward skips, writes, cache events, and file retirement.
  std::vector<TraceOp> trace;
  uint64_t s = 42;
  auto next = [&s]() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return uint32_t(s >> 33);
  };
  uint32_t page_cursor[4] = {0, 0, 0, 0};
  for (int i = 0; i < 400; i++) {
    const uint32_t file = next() % 4;
    const uint32_t kind = next() % 10;
    TraceOp op;
    op.file = file + 1;
    op.queue = file % 2;
    if (kind < 6) {
      op.kind = TraceOp::kRead;
      // Mostly advance sequentially, sometimes skip or restart.
      const uint32_t jump = next() % 8;
      if (jump == 0) {
        page_cursor[file] = next() % 100;
      } else if (jump == 1) {
        page_cursor[file] += next() % 20;
      } else {
        page_cursor[file]++;
      }
      op.page = page_cursor[file];
    } else if (kind < 8) {
      op.kind = TraceOp::kWrite;
      op.n = 1 + next() % 16;
    } else if (kind == 8) {
      op.kind = next() % 2 == 0 ? TraceOp::kHit : TraceOp::kMiss;
    } else {
      op.kind = TraceOp::kForget;
    }
    trace.push_back(op);
  }
  return trace;
}

void ApplyToModel(DiskModel& m, const TraceOp& op) {
  switch (op.kind) {
    case TraceOp::kRead: m.ChargeRead(op.file, op.page); break;
    case TraceOp::kWrite: m.ChargeWrite(op.n); break;
    case TraceOp::kHit: m.OnCacheHit(); break;
    case TraceOp::kMiss: m.OnCacheMiss(); break;
    case TraceOp::kForget: m.ForgetFile(op.file); break;
  }
}

void ApplyToEngine(IoEngine& e, const TraceOp& op, bool use_affinity) {
  IoRequest req;
  req.queue = use_affinity ? int32_t(op.queue) : IoRequest::kAnyQueue;
  switch (op.kind) {
    case TraceOp::kRead:
      req.op = IoRequest::Op::kRead;
      req.file_id = op.file;
      req.page_no = op.page;
      e.Submit(req);
      break;
    case TraceOp::kWrite:
      req.op = IoRequest::Op::kWrite;
      req.n_pages = op.n;
      e.Submit(req);
      break;
    case TraceOp::kHit: e.OnCacheHit(); break;
    case TraceOp::kMiss: e.OnCacheMiss(); break;
    case TraceOp::kForget: e.ForgetFile(op.file); break;
  }
}

void ExpectStatsEq(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.random_reads, b.random_reads);
  EXPECT_EQ(a.sequential_reads, b.sequential_reads);
  EXPECT_EQ(a.pages_written, b.pages_written);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_DOUBLE_EQ(a.simulated_us, b.simulated_us);
}

TEST(IoEngineTest, SingleQueueBitForBitParityWithLegacyDiskModel) {
  // The same recorded trace through the legacy DiskModel and through a
  // 1-queue engine must produce identical accounting, double for double —
  // this is what keeps every existing figure's simulated numbers unchanged.
  DiskModel legacy(DiskProfile::Hdd());
  IoEngine engine(DeviceProfile::FromDisk(DiskProfile::Hdd(), 1));
  ASSERT_EQ(engine.num_queues(), 1u);
  for (const TraceOp& op : RecordedTrace()) {
    ApplyToModel(legacy, op);
    ApplyToEngine(engine, op, /*use_affinity=*/false);
  }
  const IoStats a = legacy.stats();
  const IoStats b = engine.stats();
  ExpectStatsEq(a, b);
  // On one queue the critical path IS the total device work.
  EXPECT_DOUBLE_EQ(b.critical_path_us, b.simulated_us);
  EXPECT_DOUBLE_EQ(a.critical_path_us, b.critical_path_us);
}

TEST(IoEngineTest, MultiQueueDeterministicUnderSameAffinity) {
  // Same trace + same queue affinity => same per-queue clocks and the same
  // aggregate simulated time, run after run.
  const auto trace = RecordedTrace();
  IoEngine a(DeviceProfile::FromDisk(DiskProfile::Hdd(), 2));
  IoEngine b(DeviceProfile::FromDisk(DiskProfile::Hdd(), 2));
  for (const TraceOp& op : trace) ApplyToEngine(a, op, true);
  for (const TraceOp& op : trace) ApplyToEngine(b, op, true);
  ExpectStatsEq(a.stats(), b.stats());
  EXPECT_DOUBLE_EQ(a.stats().critical_path_us, b.stats().critical_path_us);
  for (uint32_t q = 0; q < 2; q++) {
    ExpectStatsEq(a.queue_stats(q), b.queue_stats(q));
  }
}

TEST(IoEngineTest, MultiQueueDeterministicAcrossThreadInterleavings) {
  // Queues are independent: driving each queue's subtrace from its own
  // thread (arbitrary cross-queue interleaving) gives the same per-queue
  // accounting as a serial replay.
  const auto trace = RecordedTrace();
  IoEngine serial(DeviceProfile::FromDisk(DiskProfile::Ssd(), 2));
  for (const TraceOp& op : trace) ApplyToEngine(serial, op, true);

  IoEngine threaded(DeviceProfile::FromDisk(DiskProfile::Ssd(), 2));
  std::vector<std::thread> workers;
  for (uint32_t q = 0; q < 2; q++) {
    workers.emplace_back([&threaded, &trace, q]() {
      for (const TraceOp& op : trace) {
        // The trace routes every access of a file (reads and forgets alike)
        // to one fixed queue, so although ForgetFile sweeps all queues, only
        // the owning queue can ever hold a head on that file — cross-queue
        // sweeps are no-ops and per-queue sequences stay deterministic.
        if (op.queue != q) continue;
        ApplyToEngine(threaded, op, true);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (uint32_t q = 0; q < 2; q++) {
    ExpectStatsEq(serial.queue_stats(q), threaded.queue_stats(q));
  }
}

TEST(IoEngineTest, DisjointFileStreamsOverlapAcrossQueues) {
  // Two sequential streams over disjoint files: interleaved on one queue
  // they destroy each other's head locality and serialize; on two queues
  // they are both sequential and overlap, so the completed simulated time
  // (critical path) drops strictly below the single-queue total.
  const int kPages = 200;
  IoEngine one(DeviceProfile::FromDisk(DiskProfile::Hdd(), 1));
  IoEngine two(DeviceProfile::FromDisk(DiskProfile::Hdd(), 2));
  for (int p = 0; p < kPages; p++) {
    for (uint32_t f = 1; f <= 2; f++) {
      one.ChargeRead(f, uint32_t(p));
      IoRequest r = IoRequest::Read(f, uint32_t(p));
      r.queue = int32_t(f - 1);
      two.Submit(r);
    }
  }
  const IoStats s1 = one.stats();
  const IoStats s2 = two.stats();
  EXPECT_EQ(s1.pages_read, s2.pages_read);
  EXPECT_LT(s2.critical_path_us, s1.simulated_us);
  // Each per-queue stream is fully sequential after its first seek.
  EXPECT_EQ(s2.random_reads, 2u);
  EXPECT_EQ(s2.sequential_reads, uint64_t(2 * kPages - 2));
}

TEST(IoEngineTest, TicketsCarryPerQueueCompletionTimes) {
  IoEngine e(DeviceProfile::FromDisk(DiskProfile::Hdd(), 2));
  IoRequest r0 = IoRequest::Write(4);
  r0.queue = 0;
  IoRequest r1 = IoRequest::Write(2);
  r1.queue = 1;
  const IoTicket t0 = e.Submit(r0);
  const IoTicket t1 = e.Submit(r1);
  EXPECT_EQ(t0.queue, 0u);
  EXPECT_EQ(t1.queue, 1u);
  const double w = DiskProfile::Hdd().write_transfer_us;
  EXPECT_DOUBLE_EQ(e.Wait(t0), 4 * w);
  EXPECT_DOUBLE_EQ(e.Wait(t1), 2 * w);  // queue 1's own clock, not queue 0's
  // A second submission on queue 0 completes after the first.
  const IoTicket t2 = e.Submit(r0);
  EXPECT_GT(e.Wait(t2), e.Wait(t0));
  EXPECT_DOUBLE_EQ(e.stats().critical_path_us, e.Wait(t2));
}

TEST(IoEngineTest, QueueScopeBindsAndNests) {
  IoEngine e(DeviceProfile::FromDisk(DiskProfile::Null(), 4));
  EXPECT_EQ(e.BoundQueue(), 0u);
  {
    IoQueueScope outer(&e, 2);
    EXPECT_EQ(e.BoundQueue(), 2u);
    {
      IoQueueScope inner(&e, 3);
      EXPECT_EQ(e.BoundQueue(), 3u);
      e.ChargeWrite(1);  // lands on queue 3
    }
    EXPECT_EQ(e.BoundQueue(), 2u);
    e.ChargeWrite(1);  // lands on queue 2
    // Queue ids wrap modulo the queue count; a null engine is a no-op.
    IoQueueScope wrapped(&e, 6);
    EXPECT_EQ(e.BoundQueue(), 2u);
    IoQueueScope nothing(nullptr, 1);
  }
  EXPECT_EQ(e.BoundQueue(), 0u);
  EXPECT_EQ(e.queue_stats(3).pages_written, 1u);
  EXPECT_EQ(e.queue_stats(2).pages_written, 1u);
  EXPECT_EQ(e.queue_stats(0).pages_written, 0u);
}

TEST(IoEngineTest, ForgetFileSweepsEveryQueueHead) {
  IoEngine e(DeviceProfile::FromDisk(DiskProfile::Hdd(), 3));
  for (uint32_t q = 0; q < 3; q++) {
    IoRequest r = IoRequest::Read(7, q);
    r.queue = int32_t(q);
    e.Submit(r);
  }
  IoRequest other = IoRequest::Read(9, 0);
  other.queue = 1;
  e.Submit(other);
  auto heads = e.HeadFiles();
  EXPECT_EQ(heads.size(), 2u);  // file 7 (queues 0, 2) and file 9 (queue 1)
  e.ForgetFile(7);
  heads = e.HeadFiles();
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0], 9u);
  e.ForgetFile(9);
  EXPECT_TRUE(e.HeadFiles().empty());
}

TEST(WalGroupCommitTest, PerCommitLatencyIsReportedInModeledTime) {
  auto commit_record = []() {
    LogRecord r;
    r.type = LogRecordType::kCommit;
    return r;
  };
  // Group commit off: AppendCommit is plain Append — no syncs, no latency.
  Wal serial;
  serial.AppendCommit(commit_record());
  EXPECT_EQ(serial.wal_stats().syncs, 0u);
  EXPECT_DOUBLE_EQ(serial.wal_stats().commit_latency_us_total, 0.0);

  // Group commit on: every commit's modeled latency spans its append to its
  // batch's sync completion on the log device's clock.
  Wal grouped;
  grouped.set_group_commit(true);
  for (int i = 0; i < 5; i++) grouped.AppendCommit(commit_record());
  const WalStats ws = grouped.wal_stats();
  EXPECT_EQ(ws.commits, 5u);
  EXPECT_EQ(ws.syncs, 5u);  // single-threaded: every commit leads its sync
  EXPECT_GT(ws.commit_latency_us_total, 0.0);
  EXPECT_GE(ws.commit_latency_us_max,
            ws.commit_latency_us_total / double(ws.commits));
}

TEST(IoEngineDatasetTest, NvmeQueuesShortenSimulatedMaintenanceTime) {
  // End-to-end acceptance property (the fig15-mq section): the same upsert
  // workload on the same NVMe cost parameters, once with 1 queue and once
  // with 4 queues + 4 maintenance threads (flushes and per-tree merges fan
  // out over the queues). The 4-queue run's completed simulated time — the
  // device's critical path — must land strictly below the single-queue
  // simulated total.
  auto run = [](uint32_t queues) {
    EnvOptions eo;
    eo.page_size = 4096;
    eo.cache_pages = (2u << 20) / eo.page_size;  // 2 MiB: merges re-read
    eo.cache_shards = queues > 1 ? 8 : 1;
    eo.device_profile = DeviceProfile::Nvme(queues);
    Env env(eo);
    DatasetOptions o;
    o.strategy = MaintenanceStrategy::kValidation;
    o.mem_budget_bytes = 512u << 10;
    o.max_mergeable_bytes = 8u << 20;
    o.maintenance_threads = 4;
    Dataset ds(&env, o);
    TweetGenerator gen;
    Random rng(11);
    for (int i = 0; i < 12000; i++) {
      if (rng.Bernoulli(0.1) && i > 100) {
        EXPECT_TRUE(ds.Upsert(gen.Update(rng.Uniform(gen.generated()))).ok());
      } else {
        EXPECT_TRUE(ds.Upsert(gen.Next()).ok());
      }
    }
    return env.stats();
  };
  const IoStats q1 = run(1);
  const IoStats q4 = run(4);
  EXPECT_DOUBLE_EQ(q1.critical_path_us, q1.simulated_us);
  EXPECT_LT(q4.critical_path_us, q1.simulated_us);
}

}  // namespace
}  // namespace auxlsm
