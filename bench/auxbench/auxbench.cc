// auxbench: the repository benchmark. One process runs one named workload.
//
//   auxbench --workload <name> --seed <n> --seconds <s> [--trace]
//            [--trace-dir <dir>] [--scale <f>]
//
// A run is a sequence of identical rounds. Each round builds a fresh fixture
// from --seed (timed: set-up), runs the workload's fixed op script (timed:
// the measured phase) and checks every result it can check cheaply. Rounds
// repeat until --seconds of measured host time have accrued. All rounds of a
// run replay the same inputs, so on the serial workloads the modeled-clock
// metrics are identical in every round and every rep; host-clock metrics are
// medians over rounds.
//
// Two clocks are kept apart and never summed:
//   host     elapsed host time around the public calls (steady_clock;
//            noisy), normalized by a calibration kernel timed around every
//            round (CalibrationUs)
//   modeled  IoEngine virtual time of the storage and log devices
//            (deterministic on the serial paths)
//
// The engine is driven only through public APIs (Dataset, ReadQuery /
// QueryCursor, RequestServer, workload/). No bench/ header is included, so
// edits to the figure benches never change this benchmark. The last line on
// stdout is one JSON object; run.py in this directory builds, runs, and
// formats it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "core/dataset.h"
#include "env/env.h"
#include "exec/maintenance.h"
#include "io/device_profile.h"
#include "server/server.h"
#include "workload/driver.h"
#include "workload/open_loop.h"
#include "workload/tweet_gen.h"

namespace auxlsm {
namespace auxbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr size_t kWindowOps = 100;     ///< ingest modeled-latency window
constexpr double kStallUs = 1000;     ///< core.ingest.stall_ops threshold
constexpr size_t kGaugeEvery = 256;    ///< traced gauge sampling period (ops)
constexpr size_t kMaxSpans = 100000;   ///< spans kept for the Chrome trace
constexpr size_t kMaxRounds = 64;
constexpr uint64_t kUserDomain = 100000;
/// max_rate_ops_per_s holds modeled p90 latency to this limit. p90, not
/// p99: the p99 knee is set by the two or three largest inline merge stalls
/// of the request stream and moved by +-20% between seeds, while p90 is set
/// by queueing behind all of them and moved by 3 to 7%.
constexpr double kServiceLatencyPct = 0.90;
constexpr double kServiceLatencyLimitUs = 5000;
/// Host-speed normalization (README.md, "The two clocks"): host times are
/// scaled by kReferenceCalibrationUs ÷ the calibration time measured around
/// each round, i.e. reported as if the host ran at the speed at which one
/// CalibrationKernelUs() takes kReferenceCalibrationUs (a quiet 4-vCPU
/// Xeon VM). On a shared host this removes most of the drift that other
/// tenants' load puts into host time.
constexpr int kCalibrationRuns = 5;
constexpr double kReferenceCalibrationUs = 38000;

// --- Small helpers ------------------------------------------------------------

const SteadyClock::time_point g_epoch = SteadyClock::now();

double Micros(SteadyClock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Nearest-rank percentile (p in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t r = size_t(std::ceil(p * double(v.size())));
  if (r == 0) r = 1;
  return v[std::min(r, v.size()) - 1];
}

/// Median with the two middle values averaged (aggregates over rounds).
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL);
}

TweetGenOptions GenOptions(uint64_t seed, uint64_t stream) {
  TweetGenOptions g;
  g.seed = StreamSeed(seed, stream);
  return g;
}

EnvOptions StorageOptions(const DeviceProfile& device, size_t cache_mib,
                          size_t cache_shards) {
  EnvOptions o;
  o.page_size = 4096;
  o.cache_pages = cache_mib * (size_t(1) << 20) / o.page_size;
  o.cache_shards = cache_shards;
  o.device_profile = device;
  return o;
}

/// Per-queue virtual clocks of the storage and log devices.
struct DeviceClocks {
  std::vector<double> storage, log;
};

DeviceClocks ReadClocks(Dataset* ds) {
  return {ds->env()->io()->QueueClocks(), ds->wal()->io()->QueueClocks()};
}

double MaxAdvance(const std::vector<double>& now,
                  const std::vector<double>& base) {
  double m = 0;
  for (size_t q = 0; q < now.size() && q < base.size(); q++) {
    m = std::max(m, now[q] - base[q]);
  }
  return m;
}

/// Completed modeled µs between two marks: per device the largest queue
/// clock advance, storage + log.
double CriticalUs(const DeviceClocks& now, const DeviceClocks& base) {
  return MaxAdvance(now.storage, base.storage) + MaxAdvance(now.log, base.log);
}

/// Host µs of a fixed piece of work that uses no engine code: filling and
/// sorting a 2 MiB array, random binary searches over it, and hashing a
/// 2 MiB buffer. The buffers are allocated once, so page faults stay out of
/// the timing. Its time follows the host's current speed, the same way the
/// engine's host time does.
volatile uint64_t g_calibration_sink;

double CalibrationKernelUs() {
  static std::vector<uint64_t> keys(size_t(1) << 18);
  static std::vector<unsigned char> bytes(size_t(2) << 20);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto t0 = SteadyClock::now();
  for (uint64_t& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  uint64_t sink = 0;
  for (uint64_t i = 0; i < (1u << 16); i++) {
    sink += uint64_t(std::lower_bound(keys.begin(), keys.end(), next()) -
                     keys.begin());
  }
  for (size_t i = 0; i < bytes.size(); i++) bytes[i] = (unsigned char)(i * 31);
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  const double us = Micros(SteadyClock::now() - t0);
  g_calibration_sink = sink + h;
  return us;
}

/// One host-speed reading: the median of kCalibrationRuns kernel runs,
/// taken while no engine object exists, so the engine cannot slow or speed
/// it.
double CalibrationUs() {
  std::vector<double> runs;
  for (int i = 0; i < kCalibrationRuns; i++) runs.push_back(CalibrationKernelUs());
  return Median(runs);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::vector<LsmTree*> Trees(Dataset* ds) {
  std::vector<LsmTree*> t = {ds->primary()};
  if (ds->primary_key_index() != nullptr) t.push_back(ds->primary_key_index());
  for (const auto& s : ds->secondaries()) {
    t.push_back(s->tree.get());
    if (s->deleted_keys) t.push_back(s->deleted_keys.get());
  }
  return t;
}

/// What the dataset must hold: the latest version of every generated key,
/// by generator history index. Filled while the inputs are generated, so
/// it is known before the measured phase runs.
struct Reference {
  std::vector<uint64_t> id, hash, ctime, user;
  std::vector<uint32_t> bytes;
  uint64_t ingested_bytes = 0;  ///< encoded user bytes of every write

  void Apply(uint64_t idx, const TweetRecord& r) {
    const std::string s = r.Serialize();
    if (idx >= id.size()) {
      id.resize(idx + 1);
      hash.resize(idx + 1);
      ctime.resize(idx + 1);
      user.resize(idx + 1);
      bytes.resize(idx + 1);
    }
    id[idx] = r.id;
    hash[idx] = Hash64(Slice(s));
    ctime[idx] = r.creation_time;
    user[idx] = r.user_id;
    bytes[idx] = uint32_t(s.size());
    ingested_bytes += s.size();
  }
  uint64_t LiveBytes() const {
    uint64_t b = 0;
    for (uint32_t x : bytes) b += x;
    return b;
  }
};

/// Reads one record by primary key through the cursor API.
Status GetRecord(Dataset* ds, uint64_t id, bool* found, TweetRecord* out) {
  AUXLSM_ASSIGN_OR_RETURN(auto cursor, ds->NewCursor(Query().Primary(id)));
  QueryPage page;
  AUXLSM_RETURN_NOT_OK(cursor->Next(&page));
  *found = !page.records.empty();
  if (*found) *out = std::move(page.records.front());
  return Status::OK();
}

/// Gate shared by the ingest workloads: `samples` keys read back after
/// timing must each return exactly their latest version.
Status CheckLatest(Dataset* ds, const std::vector<const Reference*>& refs,
                   uint64_t seed, uint64_t samples) {
  Random rng(StreamSeed(seed, 99));
  for (uint64_t i = 0; i < samples; i++) {
    const Reference& ref = *refs[rng.Uniform(refs.size())];
    const uint64_t idx = rng.Uniform(ref.id.size());
    bool found = false;
    TweetRecord rec;
    AUXLSM_RETURN_NOT_OK(GetRecord(ds, ref.id[idx], &found, &rec));
    if (!found || Hash64(Slice(rec.Serialize())) != ref.hash[idx]) {
      return Status::Corruption("read-back of key " + std::to_string(ref.id[idx]) +
                                (found ? " returned a stale version"
                                       : " found nothing"));
    }
  }
  return Status::OK();
}

// --- Tracing (--trace) ------------------------------------------------------------

/// Spans the benchmark records around its own public calls. Kept in memory
/// (capped; later spans are counted as dropped) and written as Chrome
/// trace-event JSON when the run ends. Nothing is armed inside the engine.
class SpanLog {
 public:
  void Add(const char* name, const char* layer, uint32_t tid,
           SteadyClock::time_point start, SteadyClock::time_point end,
           uint64_t id, double storage_us, double log_us) {
    MutexLock l(mu_);
    if (spans_.size() >= kMaxSpans) {
      dropped_++;
      return;
    }
    spans_.push_back(Span{name, layer, tid, Micros(start - g_epoch),
                          Micros(end - start), id, storage_us, log_us});
  }

  bool WriteChrome(const std::string& path) {
    MutexLock l(mu_);
    std::FILE* fp = std::fopen(path.c_str(), "w");
    if (fp == nullptr) return false;
    std::fprintf(fp, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(fp,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"storage_modeled_us\":%.3f,\"log_modeled_us\":%.3f}}\n",
                   i == 0 ? "" : ",", s.name, s.layer, s.tid, s.start_us,
                   s.dur_us, (unsigned long long)s.id, s.storage_us, s.log_us);
    }
    std::fprintf(fp, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
                 (unsigned long long)dropped_);
    return std::fclose(fp) == 0;
  }

  /// One line per span name: count, host ms, modeled µs (storage + log).
  void PrintSummary(std::FILE* out) {
    MutexLock l(mu_);
    struct Sum {
      uint64_t n = 0;
      double host_us = 0, storage_us = 0, log_us = 0;
    };
    std::map<std::string, Sum> by_name;
    for (const Span& s : spans_) {
      Sum& x = by_name[std::string(s.layer) + " " + s.name];
      x.n++;
      x.host_us += s.dur_us;
      x.storage_us += s.storage_us;
      x.log_us += s.log_us;
    }
    for (const auto& [name, x] : by_name) {
      std::fprintf(out,
                   "span %-32s n=%-8llu host_ms=%-10.3f storage_us=%-12.1f "
                   "log_us=%.1f\n",
                   name.c_str(), (unsigned long long)x.n, x.host_us / 1e3,
                   x.storage_us, x.log_us);
    }
    std::fprintf(out, "span dropped=%llu\n", (unsigned long long)dropped_);
  }

 private:
  struct Span {
    const char* name;
    const char* layer;
    uint32_t tid;
    double start_us, dur_us;
    uint64_t id;
    double storage_us, log_us;
  };
  Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

SpanLog* g_spans = nullptr;  ///< non-null in traced runs

/// Per-layer accumulators, summed over the measured phases of all rounds.
/// Only reported by traced runs.
struct Layers {
  size_t rounds = 0;
  uint64_t ops = 0;
  // core.ingest (direct ingest calls)
  std::vector<double> ingest_host_us;
  uint64_t stall_ops = 0, writes = 0, point_lookups = 0;
  // core.query (direct cursor calls)
  std::vector<double> open_host_us, pull_host_us, query_modeled_us;
  uint64_t queries = 0, candidates = 0, query_rows = 0;
  // cache / env.buffer_cache
  uint64_t tc_hits = 0, tc_misses = 0, tc_invalidations = 0,
           tc_stale_drops = 0;
  uint64_t pc_hits = 0, pc_misses = 0, pc_evictions = 0;
  // io.storage / io.log
  uint64_t pages_read = 0, random_reads = 0, pages_written = 0;
  double storage_sim_us = 0, storage_crit_us = 0, log_sim_us = 0;
  // txn.wal
  uint64_t commits = 0, syncs = 0, batched = 0;
  double commit_latency_us = 0;
  // lsm / exec
  uint64_t flushes = 0, merges = 0, repairs = 0, retries = 0, abandoned = 0;
  double drain_host_s = 0;
  double merge_pending_max = 0, sealed_max = 0, rounds_pending_max = 0,
         pool_depth_max = 0;
  std::map<std::string, double> disk_components;  ///< last round
  // server
  double poll_host_us = 0, encode_host_us = 0, receive_host_us = 0,
         service_us = 0;
  uint64_t encodes = 0, received = 0, dispatched = 0, batches = 0,
           decode_errors = 0;

  void SampleGauges(Dataset* ds) {
    double pending = 0, sealed = 0;
    for (LsmTree* t : Trees(ds)) {
      pending += double(t->merge_pending_jobs());
      sealed += double(t->PendingSealed().size());
    }
    merge_pending_max = std::max(merge_pending_max, pending);
    sealed_max = std::max(sealed_max, sealed);
    if (MaintenanceScheduler* m = ds->maintenance()) {
      rounds_pending_max =
          std::max(rounds_pending_max, double(m->PendingMergeRounds()));
      pool_depth_max = std::max(pool_depth_max, double(m->PoolQueueDepth()));
    }
  }
};

/// Public counters read at the boundaries of a measured phase.
struct Counters {
  IoStats storage, log;
  BufferCacheStats page;
  TupleCacheStats tuple;
  WalStats wal;
  uint64_t writes = 0, point_lookups = 0, flushes = 0, merges = 0,
           repairs = 0, retries = 0, abandoned = 0;

  static Counters Read(Dataset* ds) {
    Counters c;
    c.storage = ds->env()->stats();
    c.log = ds->wal()->stats();
    c.page = ds->env()->cache()->stats();
    c.tuple = ds->tuple_cache_stats();
    c.wal = ds->wal()->wal_stats();
    const IngestStats& in = ds->ingest_stats();
    c.writes = in.inserts.load() + in.upserts.load() + in.deletes.load();
    c.point_lookups = in.ingest_point_lookups.load();
    c.flushes = in.flushes.load();
    c.merges = in.merges.load();
    c.repairs = in.repairs.load();
    c.retries = ds->maintenance_stats().retries_attempted.load();
    c.abandoned = ds->maintenance_stats().rounds_abandoned.load();
    return c;
  }
};

/// Folds one measured phase's counter deltas into the layer totals.
void AddPhase(Dataset* ds, const Counters& a, const Counters& b,
              double storage_crit_us, uint64_t ops, Layers* L) {
  L->rounds++;
  L->ops += ops;
  L->writes += b.writes - a.writes;
  L->point_lookups += b.point_lookups - a.point_lookups;
  const TupleCacheStats tc = b.tuple - a.tuple;
  L->tc_hits += tc.hits;
  L->tc_misses += tc.misses;
  L->tc_invalidations += tc.invalidations;
  L->tc_stale_drops += tc.stale_drops;
  L->pc_hits += b.page.hits - a.page.hits;
  L->pc_misses += b.page.misses - a.page.misses;
  L->pc_evictions += b.page.evictions - a.page.evictions;
  const IoStats s = b.storage - a.storage;
  L->pages_read += s.pages_read;
  L->random_reads += s.random_reads;
  L->pages_written += s.pages_written;
  L->storage_sim_us += s.simulated_us;
  L->storage_crit_us += storage_crit_us;
  L->log_sim_us += (b.log - a.log).simulated_us;
  const WalStats w = b.wal - a.wal;
  L->commits += w.commits;
  L->syncs += w.syncs;
  L->batched += w.batched_commits;
  L->commit_latency_us += w.commit_latency_us_total;
  L->flushes += b.flushes - a.flushes;
  L->merges += b.merges - a.merges;
  L->repairs += b.repairs - a.repairs;
  L->retries += b.retries - a.retries;
  L->abandoned += b.abandoned - a.abandoned;
  for (LsmTree* t : Trees(ds)) {
    L->disk_components[t->options().name] = double(t->NumDiskComponents());
  }
}

// --- Rounds and workloads ----------------------------------------------------------

struct RoundResult {
  double setup_s = 0;
  double host_s = 0;  ///< host seconds of the measured phase
  uint64_t ops = 0, failed = 0;
  std::vector<double> host_us;     ///< per-op host µs (service: per request of a poll)
  /// Modeled latency samples, µs per op: ingest per window of kWindowOps
  /// ops, query per query, service arrival to completion per request.
  std::vector<double> modeled_us;
  double modeled_crit_us = 0;      ///< completed modeled µs, storage + log
  double modeled_total_us = 0;     ///< device work summed over queues, storage + log
  double write_amp = 0, space_amp = 0;
  double offered = 0, achieved = 0;  ///< service_mixed rate sweep, ops/s
  bool sweep = true;       ///< first pass over the workload's distinct inputs
  bool reference = true;   ///< feeds the modeled end-to-end metrics
  /// Host times × norm are normalized host times: kReferenceCalibrationUs
  /// ÷ the calibration time measured around the round.
  double norm = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds a fresh fixture and the round's inputs (timed as set-up).
  virtual Status Setup(size_t round) = 0;
  /// Runs the fixed op script against the fixture (the measured phase).
  virtual Status Measure(RoundResult* out) = 0;
  /// Correctness gate on every round's fixture, after its measured phase;
  /// a mismatch returns non-OK.
  virtual Status CheckRound() { return Status::OK(); }
  /// Correctness gate once, after the last round.
  virtual Status Verify() { return Status::OK(); }
  virtual void Teardown() = 0;
  virtual size_t MinRounds() const { return 3; }
};

/// Fills the amplification metrics of a measured phase's fixture.
void Amplification(Dataset* ds, uint64_t ingested_bytes, uint64_t live_bytes,
                   RoundResult* out) {
  const double page = double(ds->env()->page_size());
  out->write_amp = Ratio(double(ds->env()->stats().pages_written) * page,
                         double(ingested_bytes));
  out->space_amp = Ratio(double(ds->env()->store()->TotalPages()) * page,
                         double(live_bytes));
}

// --- ingest_serial / ingest_concurrent --------------------------------------------

struct IngestConfig {
  size_t writers;
  MaintenanceStrategy strategy;
  bool merge_repair;
  DeviceProfile device;
  size_t cache_mib, cache_shards;
  uint32_t log_queues;
  size_t maintenance_threads, merge_queue_depth;
  double update_fraction;
  uint64_t preload, ops;  ///< totals over all writers
};

/// One writer's closed loop over its pre-generated upserts.
struct WriterOut {
  std::vector<double> host_us, modeled_us;
  uint64_t failed = 0, stalls = 0;
  Layers gauges;
};

void RunWriter(Dataset* ds, const std::vector<TweetRecord>& script,
               uint32_t tid, bool sample_gauges, WriterOut* out) {
  IoEngine* sio = ds->env()->io();
  IoEngine* lio = ds->wal()->io();
  out->host_us.reserve(script.size());
  // Modeled time is read off the writer's own bound queues (queue 0 when
  // unbound), so concurrent writers on separate queues are kept apart;
  // background maintenance bound to the same queue is charged to the op
  // it overlaps. The latency samples are per-op means over windows of
  // kWindowOps consecutive ops: a single op's modeled cost is a sum of a
  // few fixed page costs, so its percentiles sit on the same few values
  // whatever the input, while a window's tail shows flush and merge stalls.
  double window_us = 0;
  for (size_t i = 0; i < script.size(); i++) {
    const double s0 = sio->BoundQueueClock();
    const double l0 = lio->BoundQueueClock();
    const auto t0 = SteadyClock::now();
    const Status st = ds->Upsert(script[i]);
    const auto t1 = SteadyClock::now();
    const double s1 = sio->BoundQueueClock();
    const double l1 = lio->BoundQueueClock();
    const double us = Micros(t1 - t0);
    out->host_us.push_back(us);
    window_us += (s1 - s0) + (l1 - l0);
    if ((i + 1) % kWindowOps == 0) {
      out->modeled_us.push_back(window_us / double(kWindowOps));
      window_us = 0;
    }
    if (us > kStallUs) out->stalls++;
    if (!st.ok()) out->failed++;
    if (g_spans != nullptr) {
      g_spans->Add("upsert", "core.ingest", tid, t0, t1, i, s1 - s0, l1 - l0);
      if (sample_gauges && i % kGaugeEvery == 0) out->gauges.SampleGauges(ds);
    }
  }
}

class IngestWorkload : public Workload {
 public:
  IngestWorkload(IngestConfig cfg, uint64_t seed, Layers* layers)
      : cfg_(std::move(cfg)), seed_(seed), layers_(layers) {}

  Status Setup(size_t /*round*/) override {
    env_ = std::make_unique<Env>(
        StorageOptions(cfg_.device, cfg_.cache_mib, cfg_.cache_shards));
    DatasetOptions o;
    o.strategy = cfg_.strategy;
    o.merge_repair = cfg_.merge_repair;
    o.mem_budget_bytes = 4u << 20;
    o.writer_threads = cfg_.writers;
    o.maintenance_threads = cfg_.maintenance_threads;
    o.merge_queue_depth = cfg_.merge_queue_depth;
    o.log_queues = cfg_.log_queues;
    ds_ = std::make_unique<Dataset>(env_.get(), o);

    refs_.assign(cfg_.writers, Reference());
    scripts_.assign(cfg_.writers, {});
    for (size_t w = 0; w < cfg_.writers; w++) {
      // Each writer has its own generator and only updates its own keys,
      // so every key has exactly one writer and one latest version.
      TweetGenerator gen(GenOptions(seed_, 10 + w));
      Random rng(StreamSeed(seed_, 20 + w));
      for (uint64_t i = 0; i < cfg_.preload / cfg_.writers; i++) {
        const TweetRecord r = gen.Next();
        refs_[w].Apply(i, r);
        AUXLSM_RETURN_NOT_OK(ds_->Upsert(r));
      }
      const uint64_t n = cfg_.ops / cfg_.writers;
      scripts_[w].reserve(n);
      for (uint64_t i = 0; i < n; i++) {
        uint64_t idx = gen.generated();
        TweetRecord r;
        if (rng.NextDouble() < cfg_.update_fraction) {
          idx = rng.Uniform(gen.generated());
          r = gen.Update(idx);
        } else {
          r = gen.Next();
        }
        refs_[w].Apply(idx, r);
        scripts_[w].push_back(std::move(r));
      }
    }
    AUXLSM_RETURN_NOT_OK(ds_->FlushAll());
    return ds_->WaitForMaintenance();
  }

  Status Measure(RoundResult* out) override {
    Dataset* ds = ds_.get();
    const Counters c0 = Counters::Read(ds);
    const DeviceClocks k0 = ReadClocks(ds);
    std::vector<WriterOut> outs(cfg_.writers);
    const auto t0 = SteadyClock::now();
    if (cfg_.writers == 1) {
      RunWriter(ds, scripts_[0], 0, true, &outs[0]);
    } else {
      std::vector<std::thread> threads;
      for (size_t w = 0; w < cfg_.writers; w++) {
        threads.emplace_back([this, ds, w, &outs] {
          IoQueueScope storage(ds->env()->io(), uint32_t(w));
          IoQueueScope log(ds->wal()->io(), uint32_t(w));
          RunWriter(ds, scripts_[w], uint32_t(w), w == 0, &outs[w]);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    // The drain is part of the measured phase: ingest is not done until
    // the background pipeline has caught up.
    const auto d0 = SteadyClock::now();
    const double s0 = ds->env()->io()->BoundQueueClock();
    const double l0 = ds->wal()->io()->BoundQueueClock();
    const Status drained = ds->WaitForMaintenance();
    const auto d1 = SteadyClock::now();
    if (g_spans != nullptr) {
      g_spans->Add("drain", "exec", 0, d0, d1, 0,
                   ds->env()->io()->BoundQueueClock() - s0,
                   ds->wal()->io()->BoundQueueClock() - l0);
    }
    const DeviceClocks k1 = ReadClocks(ds);
    const Counters c1 = Counters::Read(ds);

    out->host_s = Micros(d1 - t0) / 1e6;
    for (WriterOut& w : outs) {
      out->ops += w.host_us.size();
      out->failed += w.failed;
      out->host_us.insert(out->host_us.end(), w.host_us.begin(),
                          w.host_us.end());
      out->modeled_us.insert(out->modeled_us.end(), w.modeled_us.begin(),
                             w.modeled_us.end());
    }
    if (!drained.ok()) out->failed++;
    out->modeled_crit_us = CriticalUs(k1, k0);
    out->modeled_total_us = (c1.storage - c0.storage).simulated_us +
                            (c1.log - c0.log).simulated_us;
    uint64_t ingested = 0, live = 0;
    for (const Reference& r : refs_) {
      ingested += r.ingested_bytes;
      live += r.LiveBytes();
    }
    Amplification(ds, ingested, live, out);

    if (g_spans != nullptr) {
      AddPhase(ds, c0, c1, MaxAdvance(k1.storage, k0.storage), out->ops,
               layers_);
      layers_->drain_host_s += Micros(d1 - d0) / 1e6;
      for (WriterOut& w : outs) {
        layers_->ingest_host_us.insert(layers_->ingest_host_us.end(),
                                       w.host_us.begin(), w.host_us.end());
        layers_->stall_ops += w.stalls;
        layers_->merge_pending_max =
            std::max(layers_->merge_pending_max, w.gauges.merge_pending_max);
        layers_->sealed_max = std::max(layers_->sealed_max, w.gauges.sealed_max);
        layers_->rounds_pending_max =
            std::max(layers_->rounds_pending_max, w.gauges.rounds_pending_max);
        layers_->pool_depth_max =
            std::max(layers_->pool_depth_max, w.gauges.pool_depth_max);
      }
    }
    return Status::OK();
  }

  Status CheckRound() override {
    std::vector<const Reference*> refs;
    for (const Reference& r : refs_) refs.push_back(&r);
    return CheckLatest(ds_.get(), refs, seed_, 1000);
  }

  void Teardown() override {
    ds_.reset();
    env_.reset();
    scripts_.clear();
    refs_.clear();
  }

 private:
  const IngestConfig cfg_;
  const uint64_t seed_;
  Layers* const layers_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Dataset> ds_;
  std::vector<Reference> refs_;
  std::vector<std::vector<TweetRecord>> scripts_;
};

// --- query_secondary -------------------------------------------------------------

struct QueryConfig {
  uint64_t upserts;     ///< set-up writes, update_fraction of them updates
  double update_fraction;
  size_t cache_mib;
  uint64_t warmup, queries;
  uint64_t scans;       ///< CountOnly cross-checks in the gate
};

class QuerySecondary : public Workload {
 public:
  QuerySecondary(QueryConfig cfg, uint64_t seed, Layers* layers)
      : cfg_(cfg), seed_(seed), layers_(layers) {}

  Status Setup(size_t /*round*/) override {
    env_ = std::make_unique<Env>(
        StorageOptions(DeviceProfile::SataSsd(1), cfg_.cache_mib, 1));
    DatasetOptions o;
    o.strategy = MaintenanceStrategy::kValidation;
    o.maintenance_threads = 1;
    ds_ = std::make_unique<Dataset>(env_.get(), o);
    ref_ = Reference();
    TweetGenerator gen(GenOptions(seed_, 30));
    Random rng(StreamSeed(seed_, 31));
    for (uint64_t i = 0; i < cfg_.upserts; i++) {
      uint64_t idx = gen.generated();
      TweetRecord r;
      if (idx > 0 && rng.NextDouble() < cfg_.update_fraction) {
        idx = rng.Uniform(gen.generated());
        r = gen.Update(idx);
      } else {
        r = gen.Next();
      }
      ref_.Apply(idx, r);
      AUXLSM_RETURN_NOT_OK(ds_->Upsert(r));
    }
    AUXLSM_RETURN_NOT_OK(ds_->FlushAll());

    users_ = ref_.user;
    std::sort(users_.begin(), users_.end());
    index_of_.clear();
    index_of_.reserve(ref_.id.size());
    for (size_t i = 0; i < ref_.id.size(); i++) index_of_[ref_.id[i]] = i;

    // Widths 10/100/1000 in equal thirds. Positions are stratified over the
    // user domain (one random offset per width) and then shuffled, which
    // keeps the per-run mean cost close to the population mean without
    // giving consecutive queries artificial locality.
    ranges_.clear();
    const uint64_t widths[] = {10, 100, 1000};
    const uint64_t per_width = cfg_.queries / 3;
    for (uint64_t w : widths) {
      const double span = double(kUserDomain - w + 1);
      const double offset = rng.NextDouble();
      for (uint64_t k = 0; k < per_width; k++) {
        const uint64_t lo =
            uint64_t((double(k) + offset) * span / double(per_width));
        ranges_.emplace_back(lo, lo + w - 1);
      }
    }
    for (size_t i = ranges_.size(); i > 1; i--) {
      std::swap(ranges_[i - 1], ranges_[rng.Uniform(i)]);
    }
    for (uint64_t i = 0; i < cfg_.warmup; i++) {
      const uint64_t w = widths[i % 3];
      const uint64_t lo = rng.Uniform(kUserDomain - w + 1);
      AUXLSM_ASSIGN_OR_RETURN(auto cursor, ds_->NewCursor(UserRange(lo, lo + w - 1)));
      QueryResult res;
      AUXLSM_RETURN_NOT_OK(cursor->Drain(&res));
    }
    return Status::OK();
  }

  Status Measure(RoundResult* out) override {
    Dataset* ds = ds_.get();
    const Counters c0 = Counters::Read(ds);
    const DeviceClocks k0 = ReadClocks(ds);
    std::vector<TweetRecord> rows;
    for (size_t q = 0; q < ranges_.size(); q++) {
      const auto [lo, hi] = ranges_[q];
      rows.clear();
      const DeviceClocks m0 = ReadClocks(ds);
      const auto t0 = SteadyClock::now();
      auto cursor = ds->NewCursor(UserRange(lo, hi));
      const auto t1 = SteadyClock::now();
      const DeviceClocks m1 = g_spans != nullptr ? ReadClocks(ds) : m0;
      Status st = cursor.status();
      QueryPage page;
      while (st.ok() && !(*cursor)->done()) {
        const auto p0 = SteadyClock::now();
        const DeviceClocks pm0 = g_spans != nullptr ? ReadClocks(ds) : m0;
        st = (*cursor)->Next(&page);
        const auto p1 = SteadyClock::now();
        for (TweetRecord& r : page.records) rows.push_back(std::move(r));
        if (g_spans != nullptr) {
          const DeviceClocks pm1 = ReadClocks(ds);
          g_spans->Add("pull", "core.query", 0, p0, p1, q,
                       MaxAdvance(pm1.storage, pm0.storage),
                       MaxAdvance(pm1.log, pm0.log));
          layers_->pull_host_us.push_back(Micros(p1 - p0));
        }
      }
      const auto t2 = SteadyClock::now();
      const DeviceClocks m2 = ReadClocks(ds);
      out->ops++;
      out->host_us.push_back(Micros(t2 - t0));
      out->host_s += Micros(t2 - t0) / 1e6;
      out->modeled_us.push_back(CriticalUs(m2, m0));
      if (!st.ok()) {
        out->failed++;
        continue;
      }
      if (g_spans != nullptr) {
        g_spans->Add("open", "core.query", 0, t0, t1, q,
                     MaxAdvance(m1.storage, m0.storage),
                     MaxAdvance(m1.log, m0.log));
        const CursorStats& cs = (*cursor)->stats();
        layers_->open_host_us.push_back(Micros(t1 - t0));
        layers_->query_modeled_us.push_back(cs.io_simulated_us);
        layers_->queries++;
        layers_->candidates += cs.candidates;
        layers_->query_rows += cs.rows;
        if (q % kGaugeEvery == 0) layers_->SampleGauges(ds);
      }
      CheckRows(lo, hi, rows);
    }
    const DeviceClocks k1 = ReadClocks(ds);
    const Counters c1 = Counters::Read(ds);
    out->modeled_crit_us = CriticalUs(k1, k0);
    out->modeled_total_us = (c1.storage - c0.storage).simulated_us +
                            (c1.log - c0.log).simulated_us;
    Amplification(ds, ref_.ingested_bytes, ref_.LiveBytes(), out);
    if (g_spans != nullptr) {
      AddPhase(ds, c0, c1, MaxAdvance(k1.storage, k0.storage), out->ops,
               layers_);
    }
    return Status::OK();
  }

  Status CheckRound() override {
    return mismatch_.empty() ? Status::OK() : Status::Corruption(mismatch_);
  }

  Status Verify() override {
    // The full-scan plan (a different executor, no secondary index) must
    // count the same rows as the secondary-index plan.
    Random rng(StreamSeed(seed_, 98));
    for (uint64_t i = 0; i < cfg_.scans && !ranges_.empty(); i++) {
      const auto [lo, hi] = ranges_[rng.Uniform(ranges_.size())];
      auto scan = ds_->NewCursor(Query().Range(lo, hi).CountOnly());
      AUXLSM_RETURN_NOT_OK(scan.status());
      QueryResult unused;
      AUXLSM_RETURN_NOT_OK((*scan)->Drain(&unused));
      auto sec = ds_->NewCursor(UserRange(lo, hi));
      AUXLSM_RETURN_NOT_OK(sec.status());
      QueryResult res;
      AUXLSM_RETURN_NOT_OK((*sec)->Drain(&res));
      const uint64_t counted = (*scan)->stats().records_matched;
      if (counted != res.records.size()) {
        return Status::Corruption(
            "range [" + std::to_string(lo) + "," + std::to_string(hi) +
            "]: scan counted " + std::to_string(counted) +
            ", secondary query returned " + std::to_string(res.records.size()));
      }
    }
    return Status::OK();
  }

  void Teardown() override {
    ds_.reset();
    env_.reset();
  }

 private:
  static ReadQuery UserRange(uint64_t lo, uint64_t hi) {
    return Query().Secondary("user_id").Range(lo, hi);
  }

  /// Every row must be the latest version of a live key in range, and the
  /// row count must equal the reference count.
  void CheckRows(uint64_t lo, uint64_t hi, const std::vector<TweetRecord>& rows) {
    if (!mismatch_.empty()) return;
    const size_t expect =
        std::upper_bound(users_.begin(), users_.end(), hi) -
        std::lower_bound(users_.begin(), users_.end(), lo);
    std::string why;
    if (rows.size() != expect) {
      why = "returned " + std::to_string(rows.size()) + " rows, expected " +
            std::to_string(expect);
    }
    for (const TweetRecord& r : rows) {
      if (!why.empty()) break;
      const auto it = index_of_.find(r.id);
      if (it == index_of_.end() || ref_.ctime[it->second] != r.creation_time ||
          r.user_id < lo || r.user_id > hi) {
        why = "returned a stale or foreign row (id " + std::to_string(r.id) + ")";
      }
    }
    if (!why.empty()) {
      mismatch_ = "query [" + std::to_string(lo) + "," + std::to_string(hi) +
                  "] " + why;
    }
  }

  const QueryConfig cfg_;
  const uint64_t seed_;
  Layers* const layers_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Dataset> ds_;
  Reference ref_;
  std::vector<uint64_t> users_;  ///< sorted user ids of the live records
  std::unordered_map<uint64_t, size_t> index_of_;
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;
  std::string mismatch_;
};

// --- service_mixed ----------------------------------------------------------------

struct ServiceConfig {
  uint64_t preload, requests, parity_requests;
  size_t mem_budget_bytes;
  uint64_t max_mergeable_bytes;
  std::vector<double> rates;  ///< fixed offered-rate grid, ops/s (modeled clock)
  size_t reference;           ///< grid index whose latencies are reported
};

constexpr size_t kConnections = 4;
constexpr size_t kPollEvery = 8;
constexpr uint64_t kServiceRangeWidth = 100;
constexpr uint64_t kServiceLimit = 20;

class ServiceMixed : public Workload {
 public:
  ServiceMixed(ServiceConfig cfg, uint64_t seed, Layers* layers)
      : cfg_(std::move(cfg)), seed_(seed), layers_(layers) {}

  /// One round per grid rate: the sweep the modeled metrics use.
  size_t MinRounds() const override { return cfg_.rates.size(); }

  Status Setup(size_t round) override {
    rate_ = cfg_.rates[round % cfg_.rates.size()];
    AUXLSM_RETURN_NOT_OK(BuildFixture(&env_, &ds_, &gen_, &ref_));
    script_ = MakeScript(gen_.get(), rate_, cfg_.requests, &ref_);
    return Status::OK();
  }

  Status Measure(RoundResult* out) override {
    Dataset* ds = ds_.get();
    server::RequestServer srv(ds, ServerOpts());
    const Counters c0 = Counters::Read(ds);
    const DeviceClocks k0 = ReadClocks(ds);
    std::vector<server::ClientConnection*> conns;
    for (size_t i = 0; i < kConnections; i++) conns.push_back(srv.Connect());

    uint64_t outstanding = 0, sent = 0, polls = 0;
    double makespan = 0;
    const bool traced = g_spans != nullptr;
    auto harvest = [&](server::ClientConnection* c) -> size_t {
      const auto t0 = SteadyClock::now();
      std::vector<server::Response> rs = c->Receive();
      const auto t1 = SteadyClock::now();
      if (traced && !rs.empty()) {
        g_spans->Add("receive", "server", 0, t0, t1, c->id(), 0, 0);
        layers_->receive_host_us += Micros(t1 - t0);
        layers_->received += rs.size();
      }
      for (const server::Response& r : rs) {
        outstanding--;
        if (r.code != server::ResponseCode::kOk &&
            r.code != server::ResponseCode::kNotFound) {
          out->failed++;
        }
        out->modeled_us.push_back(r.latency_us);
        makespan = std::max(makespan, r.completion_us);
        if (r.code == server::ResponseCode::kOk && !r.done && r.cursor_id != 0) {
          server::Request next;
          next.request_id = r.request_id;
          next.type = server::RequestType::kCursorNext;
          next.cursor_id = r.cursor_id;
          next.arrival_us = r.completion_us;
          c->Send(next.EncodeFrame());
          outstanding++;
        }
      }
      return rs.size();
    };
    auto poll = [&](bool until_idle) -> size_t {
      const DeviceClocks m0 = traced ? ReadClocks(ds) : DeviceClocks{};
      const auto t0 = SteadyClock::now();
      const size_t n = until_idle ? srv.PollUntilIdle() : srv.Poll();
      const auto t1 = SteadyClock::now();
      if (n > 0) out->host_us.push_back(Micros(t1 - t0) / double(n));
      if (traced) {
        const DeviceClocks m1 = ReadClocks(ds);
        g_spans->Add("poll", "server", 0, t0, t1, polls,
                     MaxAdvance(m1.storage, m0.storage),
                     MaxAdvance(m1.log, m0.log));
        layers_->poll_host_us += Micros(t1 - t0);
        if (polls % 32 == 0) layers_->SampleGauges(ds);
      }
      polls++;
      return n;
    };

    const auto start = SteadyClock::now();
    for (const server::Request& req : script_) {
      const auto e0 = SteadyClock::now();
      const std::string frame = req.EncodeFrame();
      const auto e1 = SteadyClock::now();
      if (traced) {
        g_spans->Add("encode", "server", 0, e0, e1, req.request_id, 0, 0);
        layers_->encode_host_us += Micros(e1 - e0);
        layers_->encodes++;
      }
      conns[sent % kConnections]->Send(frame);
      outstanding++;
      sent++;
      if (sent % kPollEvery == 0) {
        poll(false);
        for (server::ClientConnection* c : conns) harvest(c);
      }
    }
    while (outstanding > 0) {
      const size_t dispatched = poll(true);
      size_t received = 0;
      for (server::ClientConnection* c : conns) received += harvest(c);
      if (dispatched == 0 && received == 0) {
        return Status::Aborted("service replay drain made no progress");
      }
    }
    const auto end = SteadyClock::now();
    const DeviceClocks k1 = ReadClocks(ds);
    const Counters c1 = Counters::Read(ds);
    const server::ServerStats ss = srv.stats();

    out->ops = script_.size();
    out->host_s = Micros(end - start) / 1e6;
    out->modeled_crit_us = CriticalUs(k1, k0);
    out->modeled_total_us = (c1.storage - c0.storage).simulated_us +
                            (c1.log - c0.log).simulated_us;
    out->offered = rate_;
    out->achieved = Ratio(double(out->ops) * 1e6, makespan);
    out->reference = rate_ == cfg_.rates[cfg_.reference];
    Amplification(ds, ref_.ingested_bytes, ref_.LiveBytes(), out);
    if (traced) {
      AddPhase(ds, c0, c1, MaxAdvance(k1.storage, k0.storage), out->ops,
               layers_);
      layers_->dispatched += ss.requests_dispatched;
      layers_->batches += ss.batches;
      layers_->decode_errors += ss.decode_errors;
      layers_->service_us += ss.service_us_total;
    }
    return Status::OK();
  }

  /// Served results must equal the in-process replay of the same requests
  /// (checksum, rows, ok, not_found), with one poll per send.
  Status Verify() override {
    Teardown();
    std::unique_ptr<Env> env;
    std::unique_ptr<Dataset> ds;
    std::unique_ptr<TweetGenerator> gen;
    Reference ref;
    AUXLSM_RETURN_NOT_OK(BuildFixture(&env, &ds, &gen, &ref));
    const std::vector<server::Request> script = MakeScript(
        gen.get(), cfg_.rates[cfg_.reference], cfg_.parity_requests, &ref);
    OpenLoopReport served, direct;
    {
      server::RequestServer srv(ds.get(), ServerOpts());
      AUXLSM_RETURN_NOT_OK(
          RunOpenLoopWorkload(&srv, script, kConnections, 1, &served));
    }
    ds.reset();
    env.reset();
    AUXLSM_RETURN_NOT_OK(BuildFixture(&env, &ds, &gen, &ref));
    AUXLSM_RETURN_NOT_OK(RunOpenLoopInProcess(ds.get(), script, &direct));
    if (served.result_checksum != direct.result_checksum ||
        served.rows != direct.rows || served.ok != direct.ok ||
        served.not_found != direct.not_found || served.errors != 0) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "served/in-process mismatch: checksum %016llx/%016llx "
                    "rows %llu/%llu ok %llu/%llu errors %llu",
                    (unsigned long long)served.result_checksum,
                    (unsigned long long)direct.result_checksum,
                    (unsigned long long)served.rows,
                    (unsigned long long)direct.rows,
                    (unsigned long long)served.ok, (unsigned long long)direct.ok,
                    (unsigned long long)served.errors);
      return Status::Corruption(buf);
    }
    return Status::OK();
  }

  void Teardown() override {
    ds_.reset();
    env_.reset();
    gen_.reset();
    script_.clear();
  }

 private:
  static server::ServerOptions ServerOpts() {
    server::ServerOptions so;
    so.worker_threads = 1;
    so.collect_latencies = false;
    return so;
  }

  Status BuildFixture(std::unique_ptr<Env>* env, std::unique_ptr<Dataset>* ds,
                      std::unique_ptr<TweetGenerator>* gen, Reference* ref) {
    *env = std::make_unique<Env>(
        StorageOptions(DeviceProfile::SataSsd(1), 64, 1));
    DatasetOptions o;
    o.strategy = MaintenanceStrategy::kMutableBitmap;
    o.maintenance_threads = 1;
    o.tuple_cache_bytes = 8u << 20;
    o.mem_budget_bytes = cfg_.mem_budget_bytes;
    o.max_mergeable_bytes = cfg_.max_mergeable_bytes;
    *ds = std::make_unique<Dataset>(env->get(), o);
    *gen = std::make_unique<TweetGenerator>(GenOptions(seed_, 40));
    *ref = Reference();
    for (uint64_t i = 0; i < cfg_.preload; i++) {
      const TweetRecord r = (*gen)->Next();
      ref->Apply(i, r);
      AUXLSM_RETURN_NOT_OK((*ds)->Upsert(r));
    }
    return (*ds)->FlushAll();
  }

  /// 50% Zipf gets, 10% range queries (width 100, LIMIT 20), 25% Zipf
  /// updates, 15% fresh inserts, Poisson arrivals at `rate`. The fractions
  /// are an assumption, not taken from a trace; θ 0.99 is YCSB's default
  /// Zipfian constant (see README.md). The op stream
  /// does not depend on the rate (arrivals use their own generator and are
  /// scaled by 1/rate), so every grid point replays the same requests.
  /// `ref` receives the script's writes.
  std::vector<server::Request> MakeScript(TweetGenerator* gen, double rate,
                                          uint64_t n, Reference* ref) {
    HotKeyOptions ho;
    ho.skew = HotKeyOptions::Skew::kZipf;
    ho.domain = cfg_.preload;
    ho.theta = 0.99;
    ho.seed = StreamSeed(seed_, 41);
    HotKeyGenerator gets(ho);
    ho.seed = StreamSeed(seed_, 42);
    HotKeyGenerator updates(ho);
    Random mix(StreamSeed(seed_, 43)), arrivals(StreamSeed(seed_, 44));
    std::vector<server::Request> script;
    script.reserve(n);
    double t = 0;
    for (uint64_t i = 0; i < n; i++) {
      server::Request r;
      r.request_id = i + 1;
      t += -std::log(1.0 - arrivals.NextDouble()) * 1e6 / rate;
      r.arrival_us = t;
      const double u = mix.NextDouble();
      if (u < 0.50) {
        r.type = server::RequestType::kGet;
        r.id = gen->IdAt(gets.Next());
      } else if (u < 0.60) {
        r.type = server::RequestType::kQuery;
        r.index_name = "user_id";
        r.range_lo = mix.Uniform(kUserDomain - kServiceRangeWidth + 1);
        r.range_hi = r.range_lo + kServiceRangeWidth - 1;
        r.limit = kServiceLimit;
        r.page_size = kServiceLimit;
      } else if (u < 0.85) {
        const uint64_t idx = updates.Next();
        r.type = server::RequestType::kUpsert;
        r.record = gen->Update(idx);
        ref->Apply(idx, r.record);
      } else {
        const uint64_t idx = gen->generated();
        r.type = server::RequestType::kInsert;
        r.record = gen->Next();
        ref->Apply(idx, r.record);
      }
      script.push_back(std::move(r));
    }
    return script;
  }

  const ServiceConfig cfg_;
  const uint64_t seed_;
  Layers* const layers_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Dataset> ds_;
  std::unique_ptr<TweetGenerator> gen_;
  std::vector<server::Request> script_;
  Reference ref_;  ///< state after the round's script has run
  double rate_ = 0;
};

// --- Metrics ------------------------------------------------------------------------

/// Modeled results pooled over a set of rounds.
struct Pooled {
  uint64_t ops = 0;
  double crit_us = 0;
  std::vector<double> latencies;

  void Add(const RoundResult& r) {
    ops += r.ops;
    crit_us += r.modeled_crit_us;
    latencies.insert(latencies.end(), r.modeled_us.begin(), r.modeled_us.end());
  }
  double Mean() const {
    double sum = 0;
    for (double v : latencies) sum += v;
    return Ratio(sum, double(latencies.size()));
  }
};

/// service_mixed: the highest offered rate whose modeled latency percentile
/// stays within the limit with achieved >= 0.97x offered, interpolated
/// geometrically on the log of the percentile between the last grid rate
/// that meets the limit and the first that does not.
double KneeRate(const std::vector<RoundResult>& rounds) {
  std::map<double, const RoundResult*> by_rate;
  for (const RoundResult& r : rounds) {
    if (r.sweep) by_rate.emplace(r.offered, &r);
  }
  const double limit = kServiceLatencyLimitUs;
  double prev_rate = 0, prev_tail = 0;
  for (const auto& [rate, r] : by_rate) {
    const double tail = Percentile(r->modeled_us, kServiceLatencyPct);
    if (tail <= limit && r->achieved >= 0.97 * rate) {
      prev_rate = rate;
      prev_tail = std::max(tail, 1.0);
      continue;
    }
    if (prev_rate == 0) return rate * limit / std::max(tail, limit);
    if (tail <= limit) return prev_rate;  // failed on backlog alone
    const double x = std::clamp(
        std::log(limit / prev_tail) / std::log(tail / prev_tail), 0.0, 1.0);
    return prev_rate * std::pow(rate / prev_rate, x);
  }
  return prev_rate;  // the whole grid meets the limit
}

/// Host metrics are medians over every round of normalized host times.
/// Modeled metrics pool the sweep rounds at the reference input, a fixed
/// set per workload, so on the serial workloads they do not depend on how
/// many rounds the host managed.
std::vector<std::pair<std::string, double>> EndToEnd(
    const std::vector<RoundResult>& rounds) {
  std::vector<double> setup, host_rate, host_p50, wamp, samp;
  Pooled modeled;
  bool open_loop = false;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s * r.norm);
    host_rate.push_back(Ratio(double(r.ops), r.host_s * r.norm));
    host_p50.push_back(Percentile(r.host_us, 0.50) * r.norm);
    open_loop = open_loop || r.offered > 0;
    if (!r.sweep || !r.reference) continue;
    modeled.Add(r);
    wamp.push_back(r.write_amp);
    samp.push_back(r.space_amp);
  }
  const double modeled_rate = Ratio(double(modeled.ops) * 1e6, modeled.crit_us);
  // A closed loop has no arrival process: its sustainable rate is the
  // modeled saturation throughput.
  const double max_rate =
      open_loop ? KneeRate(rounds) : modeled_rate;
  return {
      {"setup_s", Median(setup)},
      {"norm_host_ops_per_s", Median(host_rate)},
      {"norm_host_p50_us", Median(host_p50)},
      {"modeled_ops_per_s", modeled_rate},
      {"modeled_mean_us", modeled.Mean()},
      {"modeled_p99_us", Percentile(modeled.latencies, 0.99)},
      {"max_rate_ops_per_s", max_rate},
      {"write_amp", Median(wamp)},
      {"space_amp", Median(samp)},
      {"peak_rss_mb", PeakRssMb()},
  };
}

std::vector<std::pair<std::string, double>> PerLayer(
    const Layers& L, const std::vector<RoundResult>& rounds) {
  std::vector<double> p99, rate, calibration, raw_setup, raw_rate, raw_p50;
  for (const RoundResult& r : rounds) {
    p99.push_back(Percentile(r.host_us, 0.99) * r.norm);
    rate.push_back(Ratio(double(r.ops), r.host_s * r.norm));
    calibration.push_back(kReferenceCalibrationUs / r.norm);
    raw_setup.push_back(r.setup_s);
    raw_rate.push_back(Ratio(double(r.ops), r.host_s));
    raw_p50.push_back(Percentile(r.host_us, 0.50));
  }
  const double per_round = Ratio(1.0, double(L.rounds));
  auto comps = [&](const char* tree) {
    const auto it = L.disk_components.find(tree);
    return it == L.disk_components.end() ? 0.0 : it->second;
  };
  const double ops = double(L.ops);
  return {
      {"core.ingest.op_host_us.p50", Percentile(L.ingest_host_us, 0.50)},
      {"core.ingest.op_host_us.p99", Percentile(L.ingest_host_us, 0.99)},
      {"core.ingest.point_lookups_per_op",
       Ratio(double(L.point_lookups), double(L.writes))},
      {"core.ingest.stall_ops", double(L.stall_ops) * per_round},
      {"core.query.open_host_us.p50", Percentile(L.open_host_us, 0.50)},
      {"core.query.pull_host_us.p50", Percentile(L.pull_host_us, 0.50)},
      {"core.query.candidates_per_query",
       Ratio(double(L.candidates), double(L.queries))},
      {"core.query.rows_per_candidate",
       Ratio(double(L.query_rows), double(L.candidates))},
      {"core.query.modeled_us.p50", Percentile(L.query_modeled_us, 0.50)},
      {"core.query.modeled_us.p99", Percentile(L.query_modeled_us, 0.99)},
      {"cache.hit_ratio",
       Ratio(double(L.tc_hits), double(L.tc_hits + L.tc_misses))},
      {"cache.invalidations_per_write",
       Ratio(double(L.tc_invalidations), double(L.writes))},
      {"cache.stale_drops", double(L.tc_stale_drops) * per_round},
      {"env.buffer_cache.hit_ratio",
       Ratio(double(L.pc_hits), double(L.pc_hits + L.pc_misses))},
      {"env.buffer_cache.evictions_per_op", Ratio(double(L.pc_evictions), ops)},
      {"io.storage.pages_read_per_op", Ratio(double(L.pages_read), ops)},
      {"io.storage.random_read_fraction",
       Ratio(double(L.random_reads), double(L.pages_read))},
      {"io.storage.pages_written_per_op", Ratio(double(L.pages_written), ops)},
      {"io.storage.modeled_us_per_op", Ratio(L.storage_sim_us, ops)},
      {"io.storage.queue_overlap", Ratio(L.storage_sim_us, L.storage_crit_us)},
      {"txn.wal.syncs_per_commit", Ratio(double(L.syncs), double(L.commits))},
      {"txn.wal.batched_commit_fraction",
       Ratio(double(L.batched), double(L.commits))},
      {"txn.wal.commit_latency_us_avg",
       Ratio(L.commit_latency_us, double(L.commits))},
      {"io.log.modeled_us_per_op", Ratio(L.log_sim_us, ops)},
      {"lsm.flushes", double(L.flushes) * per_round},
      {"lsm.merges", double(L.merges) * per_round},
      {"lsm.repairs", double(L.repairs) * per_round},
      {"lsm.disk_components.primary", comps("primary")},
      {"lsm.disk_components.pk_index", comps("pk_index")},
      {"lsm.disk_components.user_id", comps("user_id")},
      {"lsm.merge_pending_jobs.max", L.merge_pending_max},
      {"lsm.sealed_memtables.max", L.sealed_max},
      {"exec.drain_host_s", L.drain_host_s * per_round},
      {"exec.merge_rounds_pending.max", L.rounds_pending_max},
      {"exec.pool_queue_depth.max", L.pool_depth_max},
      {"exec.retries", double(L.retries) * per_round},
      {"exec.rounds_abandoned", double(L.abandoned) * per_round},
      {"server.poll_host_us_per_request",
       Ratio(L.poll_host_us, double(L.dispatched))},
      {"server.mean_batch", Ratio(double(L.dispatched), double(L.batches))},
      {"server.decode_errors", double(L.decode_errors) * per_round},
      {"server.frame_encode_host_us", Ratio(L.encode_host_us, double(L.encodes))},
      {"server.frame_decode_host_us",
       Ratio(L.receive_host_us, double(L.received))},
      {"server.service_us_per_request",
       Ratio(L.service_us, double(L.dispatched))},
      {"bench.norm_host_p99_us", Median(p99)},
      {"bench.calibration_us", Median(calibration)},
      {"bench.raw_setup_s", Median(raw_setup)},
      {"bench.raw_host_ops_per_s", Median(raw_rate)},
      {"bench.raw_host_p50_us", Median(raw_p50)},
      {"trace.norm_host_ops_per_s", Median(rate)},
  };
}

// --- Workload table and main -----------------------------------------------------

uint64_t Scaled(uint64_t n, double scale) {
  return std::max<uint64_t>(1, uint64_t(double(n) * scale));
}


std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double scale, Layers* layers) {
  if (name == "ingest_serial") {
    IngestConfig c{1, MaintenanceStrategy::kEager, false, DeviceProfile::SataSsd(1),
                   32, 1, 1, 1, 0, 0.5, Scaled(20000, scale),
                   Scaled(100000, scale)};
    return std::make_unique<IngestWorkload>(c, seed, layers);
  }
  if (name == "ingest_concurrent") {
    IngestConfig c{2, MaintenanceStrategy::kValidation, true, DeviceProfile::Nvme(4),
                   64, 4, 2, 2, 2, 0.3, Scaled(20000, scale),
                   Scaled(140000, scale)};
    return std::make_unique<IngestWorkload>(c, seed, layers);
  }
  if (name == "query_secondary") {
    QueryConfig c{Scaled(100000, scale), 0.2, 8, Scaled(200, scale),
                  Scaled(1500, scale), 20};
    return std::make_unique<QuerySecondary>(c, seed, layers);
  }
  if (name == "service_mixed") {
    // The grid straddles the knee (about 7.4k ops/s on the seed); its
    // lowest rate is the reference rate, well below the knee.
    ServiceConfig c{Scaled(40000, scale), Scaled(25000, scale),
                    Scaled(10000, scale), 1u << 20, 4u << 20,
                    {1500, 5000, 6000, 7000, 8000, 9000, 11000}, 0};
    return std::make_unique<ServiceMixed>(c, seed, layers);
  }
  return nullptr;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
  double scale = 1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a->trace = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (flag == "--trace-dir") {
      a->trace_dir = v;
    } else if (flag == "--scale") {
      a->scale = std::atof(v.c_str());
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->scale > 0;
}

void AppendMetrics(std::string* out, const char* key,
                   const std::vector<std::pair<std::string, double>>& m) {
  *out += ",\"";
  *out += key;
  *out += "\":{";
  char buf[96];
  for (size_t i = 0; i < m.size(); i++) {
    const double v = std::isfinite(m[i].second) ? m[i].second : 0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", i == 0 ? "" : ",",
                  m[i].first.c_str(), v);
    *out += buf;
  }
  *out += "}";
}

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += (c == '\n' ? ' ' : c);
  }
  return o;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: auxbench --workload <ingest_serial|ingest_concurrent|"
                 "query_secondary|service_mixed> --seed N --seconds S "
                 "[--trace] [--trace-dir DIR] [--scale F]\n");
    return 2;
  }
  Layers layers;
  SpanLog spans;
  std::unique_ptr<Workload> w =
      MakeWorkload(args.workload, args.seed, args.scale, &layers);
  if (w == nullptr) {
    std::fprintf(stderr, "auxbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  g_spans = args.trace ? &spans : nullptr;

  // Tears the fixture down and reads the host speed. The freed heap is
  // handed back to the OS first, so the peak RSS is one round's peak and
  // not fragmentation piled up over a number of rounds that depends on
  // host speed, and every reading starts from the same heap state.
  auto calibrate = [&w] {
    w->Teardown();
    malloc_trim(0);
    return CalibrationUs();
  };
  std::vector<RoundResult> rounds;
  std::vector<double> calibration_us = {calibrate()};  ///< before each round
  double measured_s = 0;
  Status gate;
  for (size_t r = 0;
       gate.ok() && r < kMaxRounds && (r < w->MinRounds() || measured_s < args.seconds);
       r++) {
    if (r > 0) calibration_us.push_back(calibrate());
    RoundResult rr;
    const auto t0 = SteadyClock::now();
    Status st = w->Setup(r);
    rr.setup_s = Micros(SteadyClock::now() - t0) / 1e6;
    if (st.ok()) st = w->Measure(&rr);
    rr.sweep = r < w->MinRounds();
    if (!st.ok()) {
      std::fprintf(stderr, "auxbench: round %zu failed: %s\n", r,
                   st.ToString().c_str());
      return 2;
    }
    gate = w->CheckRound();
    measured_s += rr.host_s;
    std::fprintf(stderr,
                 "auxbench %s round %zu: calibration_us=%.1f setup_s=%.4f "
                 "host_s=%.4f host_p50_us=%.4f ops=%llu failed=%llu "
                 "modeled_crit_us=%.1f offered=%.0f achieved=%.0f\n",
                 args.workload.c_str(), r, calibration_us.back(), rr.setup_s,
                 rr.host_s, Percentile(rr.host_us, 0.50),
                 (unsigned long long)rr.ops, (unsigned long long)rr.failed,
                 rr.modeled_crit_us, rr.offered, rr.achieved);
    rounds.push_back(std::move(rr));
  }
  g_spans = nullptr;
  if (gate.ok()) gate = w->Verify();
  calibration_us.push_back(calibrate());
  std::fprintf(stderr, "auxbench %s final calibration_us=%.1f\n",
               args.workload.c_str(), calibration_us.back());
  // A round's host speed is read just before it and just after it.
  for (size_t r = 0; r < rounds.size(); r++) {
    rounds[r].norm = kReferenceCalibrationUs /
                     (0.5 * (calibration_us[r] + calibration_us[r + 1]));
  }
  if (!gate.ok()) {
    std::fprintf(stderr, "auxbench: correctness gate FAILED: %s\n",
                 gate.ToString().c_str());
  }

  uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : rounds) {
    attempted += r.ops;
    failed += r.failed;
  }
  std::string out = "{\"workload\":\"" + args.workload + "\"";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\"seed\":%llu,\"rounds\":%zu,\"correct\":%s,\"attempted\":%llu,"
                "\"failed\":%llu,\"measured_host_s\":%.17g,"
                "\"modeled_total_us\":%.17g",
                (unsigned long long)args.seed, rounds.size(),
                gate.ok() ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed, measured_s,
                rounds.empty() ? 0.0 : rounds.front().modeled_total_us);
  out += buf;
  out += ",\"gate\":\"" + JsonEscape(gate.ok() ? "ok" : gate.ToString()) + "\"";
  AppendMetrics(&out, "end_to_end", EndToEnd(rounds));
  if (args.trace) {
    AppendMetrics(&out, "per_layer", PerLayer(layers, rounds));
    spans.PrintSummary(stderr);
    const std::string path =
        args.trace_dir + "/trace_" + args.workload + ".json";
    if (!spans.WriteChrome(path)) {
      std::fprintf(stderr, "auxbench: cannot write %s\n", path.c_str());
      return 2;
    }
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace auxbench
}  // namespace auxlsm

int main(int argc, char** argv) { return auxlsm::auxbench::Main(argc, argv); }
