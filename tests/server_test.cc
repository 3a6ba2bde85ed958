// Service layer (PR 9): protocol frame/body round-trips (including torn and
// damaged frames), wire-vs-in-process result parity across all four
// maintenance strategies, paginated cursor continuation over the wire,
// degraded-mode mapping to retryable protocol errors, the server.* failpoint
// seams, the service-side metrics gauges, work-conserving dispatch order
// across connections that share a device queue, and a concurrent-client
// stress for TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "fault/fault_injector.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workload/open_loop.h"
#include "workload/tweet_gen.h"

namespace auxlsm {
namespace {

using server::ClientConnection;
using server::DecodeFrame;
using server::FrameResult;
using server::Request;
using server::RequestServer;
using server::RequestType;
using server::Response;
using server::ServerStats;
using server::ResponseCode;
using server::ServerOptions;

EnvOptions TestEnv(FaultInjector* fault = nullptr) {
  EnvOptions o;
  o.page_size = 1024;
  o.cache_pages = 1 << 14;
  o.disk_profile = DiskProfile::Null();
  o.fault_injector = fault;
  return o;
}

DatasetOptions Opts(MaintenanceStrategy s) {
  DatasetOptions o;
  o.strategy = s;
  o.mem_budget_bytes = 48 << 10;
  o.max_mergeable_bytes = 1 << 20;
  if (s == MaintenanceStrategy::kValidation) o.merge_repair = true;
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

Request MakeInsert(uint64_t request_id, const TweetRecord& rec) {
  Request q;
  q.request_id = request_id;
  q.type = RequestType::kUpsert;
  q.record = rec;
  return q;
}

/// Sends one request, polls to completion, expects exactly one response.
Response RoundTrip(RequestServer* srv, ClientConnection* c,
                   const Request& req) {
  c->Send(req.EncodeFrame());
  srv->PollUntilIdle();
  std::vector<Response> rs = c->Receive();
  EXPECT_EQ(rs.size(), 1u);
  return rs.empty() ? Response{} : rs[0];
}

// ---------------------------------------------------------------------------
// Protocol round-trips
// ---------------------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTripAllTypes) {
  for (RequestType t :
       {RequestType::kInsert, RequestType::kUpsert, RequestType::kDelete,
        RequestType::kGet, RequestType::kQuery, RequestType::kScan,
        RequestType::kCursorNext, RequestType::kCursorClose}) {
    Request in;
    in.request_id = 42;
    in.arrival_us = 1234.5;
    in.type = t;
    in.record = MakeTweet(7, 3, 11);
    in.id = 99;
    in.index_name = "user_id";
    in.range_lo = 5;
    in.range_hi = 105;
    in.time_lo = 1;
    in.time_hi = 2;
    in.limit = 10;
    in.page_size = 4;
    in.cursor_id = 77;

    const std::string frame = in.EncodeFrame();
    Slice body;
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(Slice(frame), server::kDefaultMaxFrameBytes, &body,
                          &consumed, nullptr),
              FrameResult::kOk);
    EXPECT_EQ(consumed, frame.size());
    Request out;
    ASSERT_TRUE(Request::DecodeBody(body, &out).ok());
    EXPECT_EQ(out.request_id, in.request_id);
    EXPECT_DOUBLE_EQ(out.arrival_us, in.arrival_us);
    EXPECT_EQ(out.type, t);
    switch (t) {
      case RequestType::kInsert:
      case RequestType::kUpsert:
        EXPECT_EQ(out.record.id, in.record.id);
        EXPECT_EQ(out.record.message, in.record.message);
        break;
      case RequestType::kDelete:
      case RequestType::kGet:
        EXPECT_EQ(out.id, in.id);
        break;
      case RequestType::kQuery:
        EXPECT_EQ(out.index_name, in.index_name);
        EXPECT_EQ(out.range_lo, in.range_lo);
        EXPECT_EQ(out.range_hi, in.range_hi);
        EXPECT_EQ(out.limit, in.limit);
        EXPECT_EQ(out.page_size, in.page_size);
        break;
      case RequestType::kScan:
        EXPECT_EQ(out.time_lo, in.time_lo);
        EXPECT_EQ(out.time_hi, in.time_hi);
        break;
      case RequestType::kCursorNext:
      case RequestType::kCursorClose:
        EXPECT_EQ(out.cursor_id, in.cursor_id);
        break;
    }
  }
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response in;
  in.request_id = 7;
  in.code = ResponseCode::kOk;
  in.done = false;
  in.cursor_id = 31;
  in.count = 2;
  in.completion_us = 98.5;
  in.latency_us = 42.25;
  in.message = "hello";
  in.records.push_back(MakeTweet(1, 2, 3));
  in.records.push_back(MakeTweet(4, 5, 6));

  const std::string frame = in.EncodeFrame();
  Slice body;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(Slice(frame), server::kDefaultMaxFrameBytes, &body,
                        &consumed, nullptr),
            FrameResult::kOk);
  Response out;
  ASSERT_TRUE(Response::DecodeBody(body, &out).ok());
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.done, in.done);
  EXPECT_EQ(out.cursor_id, in.cursor_id);
  EXPECT_EQ(out.count, in.count);
  EXPECT_DOUBLE_EQ(out.completion_us, in.completion_us);
  EXPECT_DOUBLE_EQ(out.latency_us, in.latency_us);
  EXPECT_EQ(out.message, in.message);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[1].id, 4u);
}

TEST(ProtocolTest, TornAndDamagedFrames) {
  Request req = MakeInsert(1, MakeTweet(1, 1, 1));
  const std::string frame = req.EncodeFrame();

  // Torn: any strict prefix wants more bytes.
  Slice body;
  size_t consumed = 1;
  for (size_t cut : {size_t(3), size_t(server::kFrameHeaderBytes),
                     frame.size() - 1}) {
    EXPECT_EQ(DecodeFrame(Slice(frame.data(), cut),
                          server::kDefaultMaxFrameBytes, &body, &consumed,
                          nullptr),
              FrameResult::kNeedMore);
  }

  // Damaged body: the CRC rejects it, but the length prefix still brackets
  // the frame — exactly one frame is skipped and the next decodes.
  std::string two = frame + frame;
  two[server::kFrameHeaderBytes + 3] ^= 0x40;
  std::string error;
  EXPECT_EQ(DecodeFrame(Slice(two), server::kDefaultMaxFrameBytes, &body,
                        &consumed, &error),
            FrameResult::kBad);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(DecodeFrame(Slice(two.data() + consumed, two.size() - consumed),
                        server::kDefaultMaxFrameBytes, &body, &consumed,
                        nullptr),
            FrameResult::kOk);

  // Implausible length: the boundary itself is garbage — the rest of the
  // buffer is unrecoverable and dropped wholesale.
  std::string bad = frame;
  bad[0] = char(0xff);
  bad[1] = char(0xff);
  bad[2] = char(0xff);
  bad[3] = char(0x7f);
  EXPECT_EQ(DecodeFrame(Slice(bad), server::kDefaultMaxFrameBytes, &body,
                        &consumed, &error),
            FrameResult::kBad);
  EXPECT_EQ(consumed, bad.size());
}

// ---------------------------------------------------------------------------
// Server behavior over the wire
// ---------------------------------------------------------------------------

TEST(ServerTest, TornDeliveryAndGarbageResync) {
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  RequestServer srv(&ds, ServerOptions{});
  ClientConnection* c = srv.Connect();

  // Torn delivery: half a frame decodes nothing; the rest completes it.
  const Request ins = MakeInsert(1, MakeTweet(1, 1, 1));
  const std::string frame = ins.EncodeFrame();
  c->Send(frame.substr(0, frame.size() / 2));
  srv.Poll();
  EXPECT_TRUE(c->Receive().empty());
  c->Send(frame.substr(frame.size() / 2));
  srv.PollUntilIdle();
  std::vector<Response> rs = c->Receive();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].code, ResponseCode::kOk);

  // Garbage frame between two valid ones: the damaged frame answers
  // kBadRequest, both valid frames execute — per-request errors, never a
  // poisoned connection.
  std::string mid = MakeInsert(2, MakeTweet(2, 1, 2)).EncodeFrame();
  mid[server::kFrameHeaderBytes + 2] ^= 0x10;
  c->Send(MakeInsert(3, MakeTweet(3, 1, 3)).EncodeFrame() + mid +
          MakeInsert(4, MakeTweet(4, 1, 4)).EncodeFrame());
  srv.PollUntilIdle();
  rs = c->Receive();
  ASSERT_EQ(rs.size(), 3u);
  int ok = 0, bad = 0;
  for (const Response& r : rs) {
    if (r.code == ResponseCode::kOk) ok++;
    if (r.code == ResponseCode::kBadRequest) bad++;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(bad, 1);
  EXPECT_EQ(ds.num_records(), 3u);  // ids 1, 3, 4; the damaged frame is gone
  EXPECT_EQ(c->stats().decode_errors.load(), 1u);
}

TEST(ServerTest, PaginatedCursorContinuationOverWire) {
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  for (uint64_t id = 1; id <= 30; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, /*user=*/5, id)).ok());
  }
  RequestServer srv(&ds, ServerOptions{});
  ClientConnection* c = srv.Connect();
  ClientConnection* other = srv.Connect();

  Request q;
  q.request_id = 100;
  q.type = RequestType::kQuery;
  q.range_lo = 5;
  q.range_hi = 5;
  q.page_size = 7;
  Response page = RoundTrip(&srv, c, q);
  ASSERT_EQ(page.code, ResponseCode::kOk);
  EXPECT_EQ(page.records.size(), 7u);
  ASSERT_FALSE(page.done);
  ASSERT_NE(page.cursor_id, 0u);
  EXPECT_EQ(srv.dispatcher()->open_cursors(), 1u);

  // A foreign connection cannot touch the cursor.
  Request steal;
  steal.request_id = 200;
  steal.type = RequestType::kCursorNext;
  steal.cursor_id = page.cursor_id;
  EXPECT_EQ(RoundTrip(&srv, other, steal).code, ResponseCode::kBadRequest);
  EXPECT_EQ(srv.dispatcher()->open_cursors(), 1u);

  uint64_t rows = page.records.size();
  uint64_t pages = 1;
  while (!page.done) {
    Request next;
    next.request_id = 100;
    next.type = RequestType::kCursorNext;
    next.cursor_id = page.cursor_id;
    page = RoundTrip(&srv, c, next);
    ASSERT_EQ(page.code, ResponseCode::kOk);
    rows += page.records.size();
    pages++;
    ASSERT_LE(pages, 10u);
  }
  EXPECT_EQ(rows, 30u);
  EXPECT_EQ(pages, 5u);  // ceil(30/7) = 5: 7+7+7+7+2
  // The drained cursor auto-closed server-side.
  EXPECT_EQ(srv.dispatcher()->open_cursors(), 0u);
  Request stale;
  stale.request_id = 300;
  stale.type = RequestType::kCursorNext;
  stale.cursor_id = page.cursor_id;
  EXPECT_EQ(RoundTrip(&srv, c, stale).code, ResponseCode::kBadRequest);
}

TEST(ServerTest, GetDeleteScanAndUnknownIndex) {
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kValidation));
  for (uint64_t id = 1; id <= 10; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id, 100 + id)).ok());
  }
  RequestServer srv(&ds, ServerOptions{});
  ClientConnection* c = srv.Connect();

  Request get;
  get.request_id = 1;
  get.type = RequestType::kGet;
  get.id = 4;
  Response r = RoundTrip(&srv, c, get);
  ASSERT_EQ(r.code, ResponseCode::kOk);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].id, 4u);

  Request del;
  del.request_id = 2;
  del.type = RequestType::kDelete;
  del.id = 4;
  EXPECT_EQ(RoundTrip(&srv, c, del).code, ResponseCode::kOk);
  get.request_id = 3;
  EXPECT_EQ(RoundTrip(&srv, c, get).code, ResponseCode::kNotFound);

  Request scan;
  scan.request_id = 4;
  scan.type = RequestType::kScan;
  scan.time_lo = 101;
  scan.time_hi = 110;
  r = RoundTrip(&srv, c, scan);
  ASSERT_EQ(r.code, ResponseCode::kOk);
  EXPECT_EQ(r.count, 9u);  // 10 records minus the deleted one

  Request q;
  q.request_id = 5;
  q.type = RequestType::kQuery;
  q.index_name = "no-such-index";
  q.range_lo = 0;
  q.range_hi = 100;
  EXPECT_EQ(RoundTrip(&srv, c, q).code, ResponseCode::kBadRequest);
}

// ---------------------------------------------------------------------------
// Wire vs in-process parity, all four strategies
// ---------------------------------------------------------------------------

TEST(ServerParityTest, ServedResultsRowIdenticalAcrossStrategies) {
  for (MaintenanceStrategy s :
       {MaintenanceStrategy::kEager, MaintenanceStrategy::kValidation,
        MaintenanceStrategy::kMutableBitmap,
        MaintenanceStrategy::kDeletedKeyBtree}) {
    SCOPED_TRACE(StrategyName(s));
    constexpr uint64_t kPreload = 300;
    OpenLoopOptions wo;
    wo.num_ops = 400;
    wo.get_fraction = 0.35;
    wo.query_fraction = 0.15;
    wo.range_width = 2000;
    wo.limit = 12;
    wo.page_size = 5;  // paginated queries -> cursor continuations on the wire
    wo.seed = 11;

    // Two identical fixtures; the script is generated once from a generator
    // that produced the served fixture's preload, so gets hit live keys.
    Env env_a(TestEnv()), env_b(TestEnv());
    Dataset served_ds(&env_a, Opts(s)), direct_ds(&env_b, Opts(s));
    TweetGenerator gen_a, gen_b;
    for (uint64_t i = 0; i < kPreload; i++) {
      ASSERT_TRUE(served_ds.Upsert(gen_a.Next()).ok());
      ASSERT_TRUE(direct_ds.Upsert(gen_b.Next()).ok());
    }
    ASSERT_TRUE(served_ds.FlushAll().ok());
    ASSERT_TRUE(direct_ds.FlushAll().ok());
    const std::vector<Request> script = MakeOpenLoopScript(&gen_a, wo);

    RequestServer srv(&served_ds, ServerOptions{});
    OpenLoopReport served, direct;
    ASSERT_TRUE(RunOpenLoopWorkload(&srv, script, /*num_connections=*/3,
                                    /*poll_every=*/1, &served)
                    .ok());
    ASSERT_TRUE(RunOpenLoopInProcess(&direct_ds, script, &direct).ok());

    EXPECT_EQ(served.ok, direct.ok);
    EXPECT_EQ(served.not_found, direct.not_found);
    EXPECT_EQ(served.errors, 0u);
    EXPECT_EQ(direct.errors, 0u);
    EXPECT_EQ(served.rows, direct.rows);
    EXPECT_EQ(served.result_checksum, direct.result_checksum);
    EXPECT_EQ(served_ds.num_records(), direct_ds.num_records());
  }
}

// Regression: a script whose tail is all multi-page queries leaves the
// drain loop harvesting only non-final pages — each response retires one
// outstanding request and immediately re-ups with a kCursorNext, so the
// net outstanding count never moves. The drain must measure progress by
// responses received / requests dispatched, not by that delta.
TEST(ServerParityTest, DrainCompletesWhenScriptEndsOnPaginatedQueries) {
  Env env_a(TestEnv()), env_b(TestEnv());
  Dataset served_ds(&env_a, Opts(MaintenanceStrategy::kEager));
  Dataset direct_ds(&env_b, Opts(MaintenanceStrategy::kEager));
  for (uint64_t id = 1; id <= 60; id++) {
    ASSERT_TRUE(served_ds.Upsert(MakeTweet(id, id % 5, id)).ok());
    ASSERT_TRUE(direct_ds.Upsert(MakeTweet(id, id % 5, id)).ok());
  }
  ASSERT_TRUE(served_ds.FlushAll().ok());
  ASSERT_TRUE(direct_ds.FlushAll().ok());

  // Every script op is a query spanning >= 3 pages (limit 12, page 5).
  std::vector<Request> script;
  for (uint64_t i = 0; i < 4; i++) {
    Request q;
    q.request_id = i + 1;
    q.type = RequestType::kQuery;
    q.range_lo = 0;
    q.range_hi = 4;
    q.limit = 12;
    q.page_size = 5;
    script.push_back(q);
  }

  RequestServer srv(&served_ds, ServerOptions{});
  OpenLoopReport served, direct;
  // poll_every > script size: nothing is harvested until the drain loop,
  // whose first rounds then see exclusively non-final pages.
  ASSERT_TRUE(RunOpenLoopWorkload(&srv, script, /*num_connections=*/2,
                                  /*poll_every=*/100, &served)
                  .ok());
  ASSERT_TRUE(RunOpenLoopInProcess(&direct_ds, script, &direct).ok());
  EXPECT_EQ(served.errors, 0u);
  EXPECT_EQ(served.rows, direct.rows);
  EXPECT_EQ(served.result_checksum, direct.result_checksum);
}

// ---------------------------------------------------------------------------
// Degraded mode and failpoints
// ---------------------------------------------------------------------------

TEST(ServerTest, DegradedModeAnswersRetryableAndConnectionSurvives) {
  FaultInjector fault(3);
  Env env(TestEnv(&fault));
  DatasetOptions o = Opts(MaintenanceStrategy::kEager);
  o.fault_injector = &fault;
  o.mem_budget_bytes = 8 << 10;
  o.maintenance_retry_limit = 2;
  o.retry_backoff_us = 10;
  Dataset ds(&env, o);
  for (uint64_t id = 1; id <= 60; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 5, id)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());

  RequestServer srv(&ds, ServerOptions{.fault_injector = &fault});
  ClientConnection* c = srv.Connect();

  fault.Arm(failpoints::kFlushBuild,
            FaultSpec::Error(Status::IOError("disk down"), 1.0));
  // Write through the server until the budget-triggered flush exhausts its
  // retries: the failing request must answer kRetryable (satellite 2), not
  // kill the connection.
  bool saw_retryable = false;
  uint64_t id = 100;
  for (; id < 600 && !saw_retryable; id++) {
    const Response r =
        RoundTrip(&srv, c, MakeInsert(id, MakeTweet(id, 1, id)));
    if (r.code == ResponseCode::kRetryable) {
      saw_retryable = true;
    } else {
      ASSERT_EQ(r.code, ResponseCode::kOk);
    }
  }
  ASSERT_TRUE(saw_retryable) << "flush faults never surfaced over the wire";
  // The dispatcher drained the sticky background errors while mapping, so
  // degradation lifted without any out-of-band intervention.
  EXPECT_EQ(ds.health(), DatasetHealth::kHealthy);

  // The connection is still fully usable: reads serve immediately, and
  // once the disk "recovers" writes commit again on the same connection.
  fault.DisarmAll();
  Request get;
  get.request_id = 9000;
  get.type = RequestType::kGet;
  get.id = 1;
  EXPECT_EQ(RoundTrip(&srv, c, get).code, ResponseCode::kOk);
  EXPECT_EQ(RoundTrip(&srv, c, MakeInsert(9001, MakeTweet(9001, 1, 9001)))
                .code,
            ResponseCode::kOk);
}

TEST(ServerTest, DecodeFailpointDropsRequestNotDataset) {
  FaultInjector fault(5);
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  RequestServer srv(&ds, ServerOptions{.fault_injector = &fault});
  ClientConnection* c = srv.Connect();

  fault.Arm(failpoints::kServerDecodeFrame,
            FaultSpec::ErrorNth(Status::IOError("wire fault"), 2));
  for (uint64_t id = 1; id <= 3; id++) {
    c->Send(MakeInsert(id, MakeTweet(id, 1, id)).EncodeFrame());
  }
  srv.PollUntilIdle();
  std::vector<Response> rs = c->Receive();
  ASSERT_EQ(rs.size(), 3u);
  int ok = 0, retryable = 0;
  for (const Response& r : rs) {
    if (r.code == ResponseCode::kOk) ok++;
    if (r.code == ResponseCode::kRetryable) retryable++;  // IOError retries
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(retryable, 1);
  // The dropped frame had no dataset effect: exactly the two OK inserts.
  EXPECT_EQ(ds.num_records(), 2u);
  fault.DisarmAll();
}

TEST(ServerTest, DispatchFailpointFailsBeforeAnyEffect) {
  FaultInjector fault(5);
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  RequestServer srv(&ds, ServerOptions{.fault_injector = &fault});
  ClientConnection* c = srv.Connect();

  fault.Arm(failpoints::kServerDispatch,
            FaultSpec::Error(Status::IOError("dispatch fault"), 1.0));
  const Request ins = MakeInsert(1, MakeTweet(1, 1, 1));
  EXPECT_EQ(RoundTrip(&srv, c, ins).code, ResponseCode::kRetryable);
  EXPECT_EQ(ds.num_records(), 0u);

  // The same frame retried after the fault clears succeeds: error
  // atomicity held, nothing partial was left behind.
  fault.DisarmAll();
  EXPECT_EQ(RoundTrip(&srv, c, ins).code, ResponseCode::kOk);
  EXPECT_EQ(ds.num_records(), 1u);
}

// ---------------------------------------------------------------------------
// Service-side metrics (satellite 6)
// ---------------------------------------------------------------------------

TEST(ServerTest, MetricsSnapshotCarriesServiceBacklog) {
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  {
    obs::MetricsRegistry registry;
    ServerOptions so;
    so.metrics = &registry;
    RequestServer srv(&ds, so);
    ClientConnection* c = srv.Connect();
    srv.Connect();
    for (uint64_t id = 1; id <= 5; id++) {
      ASSERT_EQ(RoundTrip(&srv, c, MakeInsert(id, MakeTweet(id, 1, id))).code,
                ResponseCode::kOk);
    }
    const obs::MetricsSnapshot s = ds.MetricsSnapshot();
    ASSERT_TRUE(s.values.count("server.connections"));
    EXPECT_EQ(s.values.at("server.connections"), 2);
    EXPECT_EQ(s.values.at("server.requests_dispatched"), 5);
    EXPECT_EQ(s.values.at("server.inflight_requests"), 0);
    EXPECT_EQ(s.values.at("server.batch_max"), 1);
    EXPECT_EQ(s.values.at("server.decode_errors"), 0);
    // DebugString carries the service section for the one-call overview.
    EXPECT_NE(ds.DebugString().find("server.connections"), std::string::npos);
    const ServerStats st = srv.stats();
    EXPECT_EQ(st.requests_dispatched, 5u);
    EXPECT_EQ(st.responses_sent, 5u);
    EXPECT_GT(st.batches, 0u);
  }
  // The server unregistered its metrics source on destruction.
  EXPECT_EQ(ds.MetricsSnapshot().values.count("server.connections"), 0u);
}

// ---------------------------------------------------------------------------
// Dispatch order: each device queue serves earliest-eligible first
// ---------------------------------------------------------------------------

void SendAt(ClientConnection* c, Request req, double arrival_us) {
  req.arrival_us = arrival_us;
  c->Send(req.EncodeFrame());
}

Request MakeGet(uint64_t request_id, uint64_t id) {
  Request q;
  q.request_id = request_id;
  q.type = RequestType::kGet;
  q.id = id;
  return q;
}

uint64_t UserOf(Dataset* ds, uint64_t id) {
  TweetRecord rec;
  EXPECT_TRUE(ds->GetById(id, &rec).ok());
  return rec.user_id;
}

// Gets on a cost-free storage device have zero service time, so a
// work-conserving queue starts every request the instant it arrives: no
// latency at all. Serving connection by connection would make connection
// 1's early arrivals wait for connection 0's late ones.
TEST(DispatchOrderTest, SharedQueueNeverIdlesWhileARequestWaits) {
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  for (uint64_t id = 1; id <= 20; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 4, id)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  RequestServer srv(&ds, ServerOptions{});
  std::vector<ClientConnection*> conns;
  for (int i = 0; i < 3; i++) conns.push_back(srv.Connect());
  // Per-connection arrivals rise; across connections they interleave.
  const double arrivals[3][4] = {{100, 5000, 9000, 20000},
                                 {200, 300, 6000, 7000},
                                 {50, 8000, 8500, 30000}};
  uint64_t rid = 1;
  for (int i = 0; i < 3; i++) {
    for (double a : arrivals[i]) {
      SendAt(conns[size_t(i)], MakeGet(rid, 1 + rid % 20), a);
      rid++;
    }
  }
  ASSERT_EQ(srv.Poll(), 12u);  // one round takes every batch
  for (int i = 0; i < 3; i++) {
    const std::vector<Response> rs = conns[size_t(i)]->Receive();
    ASSERT_EQ(rs.size(), 4u);
    for (size_t k = 0; k < rs.size(); k++) {
      EXPECT_EQ(rs[k].code, ResponseCode::kOk);
      EXPECT_EQ(rs[k].latency_us, 0.0) << "connection " << i << " #" << k;
      EXPECT_EQ(rs[k].completion_us, arrivals[i][k]);
    }
  }
  EXPECT_EQ(srv.stats().queue_wait_us_total, 0.0);
}

// The dataset sees the requests in eligibility order too: the earlier
// arrival's write lands first, whatever the connection ids.
TEST(DispatchOrderTest, EarlierArrivalExecutesFirstAcrossConnections) {
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  RequestServer srv(&ds, ServerOptions{});
  ClientConnection* c0 = srv.Connect();
  ClientConnection* c1 = srv.Connect();
  SendAt(c0, MakeInsert(1, MakeTweet(1, 10, 1)), 2e6);
  SendAt(c1, MakeInsert(2, MakeTweet(1, 20, 1)), 1e6);
  srv.PollUntilIdle();
  EXPECT_EQ(UserOf(&ds, 1), 10u);  // c1's earlier write was overwritten
  const std::vector<Response> r0 = c0->Receive(), r1 = c1->Receive();
  ASSERT_EQ(r0.size(), 1u);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_LT(r1[0].completion_us, r0[0].completion_us);
  EXPECT_EQ(srv.stats().queue_wait_us_total, 0.0);  // a second apart

  // An unstamped (closed-loop) request is eligible once its connection's
  // previous request completed: c1's finished first, so c1 goes first.
  c0->Send(MakeInsert(3, MakeTweet(1, 30, 1)).EncodeFrame());
  c1->Send(MakeInsert(4, MakeTweet(1, 40, 1)).EncodeFrame());
  srv.PollUntilIdle();
  EXPECT_EQ(UserOf(&ds, 1), 30u);
}

// Fresh connections' unstamped requests are all eligible at once: ties go
// to the lower connection id, the order the server always used.
TEST(DispatchOrderTest, EligibilityTiesGoToLowerConnection) {
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  RequestServer srv(&ds, ServerOptions{});
  ClientConnection* c0 = srv.Connect();
  ClientConnection* c1 = srv.Connect();
  c1->Send(MakeInsert(1, MakeTweet(1, 10, 1)).EncodeFrame());
  c0->Send(MakeInsert(2, MakeTweet(1, 20, 1)).EncodeFrame());
  srv.PollUntilIdle();
  EXPECT_EQ(UserOf(&ds, 1), 10u);
}

// A connection's requests stay FIFO even when its arrival stamps run
// backwards (a cursor continuation is stamped with the previous page's
// completion): only the head of a connection is ever eligible.
TEST(DispatchOrderTest, ConnectionStaysFifoWhenStampsRunBackwards) {
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  RequestServer srv(&ds, ServerOptions{});
  ClientConnection* c0 = srv.Connect();
  ClientConnection* c1 = srv.Connect();
  SendAt(c0, MakeInsert(1, MakeTweet(1, 10, 1)), 9000);
  SendAt(c0, MakeInsert(2, MakeTweet(1, 20, 1)), 100);
  SendAt(c1, MakeInsert(3, MakeTweet(2, 30, 2)), 500);
  srv.PollUntilIdle();
  EXPECT_EQ(UserOf(&ds, 1), 20u);
  const std::vector<Response> r0 = c0->Receive(), r1 = c1->Receive();
  ASSERT_EQ(r0.size(), 2u);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r0[0].request_id, 1u);
  EXPECT_EQ(r0[1].request_id, 2u);
  EXPECT_LE(r1[0].completion_us, r0[0].completion_us);
  EXPECT_LE(r0[0].completion_us, r0[1].completion_us);
  // The second request arrived "early" but had to wait for the first.
  EXPECT_GT(r0[1].latency_us, r0[0].latency_us);
}

// Latency decomposes into queueing wait plus service: a burst that arrives
// at one instant queues on the single device queue, the queue never idles
// until the burst is done, and the snapshot carries both averages.
TEST(DispatchOrderTest, LatencyIsQueueWaitPlusService) {
  EnvOptions eo = TestEnv();
  eo.disk_profile = DiskProfile::Ssd();  // reads cost modeled time
  eo.cache_pages = 4;                    // ... and mostly miss
  Env env(eo);
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  for (uint64_t id = 1; id <= 200; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 7, id)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  RequestServer srv(&ds, ServerOptions{});
  std::vector<ClientConnection*> conns;
  for (int i = 0; i < 4; i++) conns.push_back(srv.Connect());
  constexpr double kBurstUs = 1000;
  for (uint64_t id = 1; id <= 12; id++) {
    SendAt(conns[id % 4], MakeGet(id, id * 16), kBurstUs);
  }
  srv.PollUntilIdle();
  double latency_sum = 0, makespan = 0;
  for (ClientConnection* c : conns) {
    for (const Response& r : c->Receive()) {
      ASSERT_EQ(r.code, ResponseCode::kOk);
      latency_sum += r.latency_us;
      makespan = std::max(makespan, r.completion_us);
    }
  }
  const ServerStats st = srv.stats();
  ASSERT_EQ(st.requests_dispatched, 12u);
  ASSERT_GT(st.service_us_total, 0.0);  // the log device charges commits
  EXPECT_GT(st.queue_wait_us_total, 0.0);
  EXPECT_NEAR(latency_sum, st.queue_wait_us_total + st.service_us_total,
              1e-6 * latency_sum);
  EXPECT_NEAR(makespan, kBurstUs + st.service_us_total, 1e-6 * makespan);
  const obs::MetricsSnapshot s = ds.MetricsSnapshot();
  EXPECT_NEAR(s.values.at("server.queue_wait_us_avg"),
              st.queue_wait_us_total / 12, 1e-9);
  EXPECT_NEAR(s.values.at("server.service_us_avg"), st.service_us_total / 12,
              1e-9);
}

// With a worker pool each device-queue partition is merged by one worker,
// so each queue still serves its earliest arrival first.
TEST(DispatchOrderTest, WorkerPartitionsKeepArrivalOrderPerQueue) {
  EnvOptions eo = TestEnv();
  eo.io_queues = 2;
  Env env(eo);
  DatasetOptions o = Opts(MaintenanceStrategy::kEager);
  o.writer_threads = 4;
  o.log_queues = 2;
  Dataset ds(&env, o);
  ServerOptions so;
  so.worker_threads = 2;
  RequestServer srv(&ds, so);
  std::vector<ClientConnection*> conns;
  for (int i = 0; i < 4; i++) conns.push_back(srv.Connect());
  // Connections 0 and 2 share queue 0, 1 and 3 share queue 1; in each pair
  // the higher id arrives first.
  SendAt(conns[0], MakeInsert(1, MakeTweet(1, 10, 1)), 2e6);
  SendAt(conns[2], MakeInsert(2, MakeTweet(1, 20, 1)), 1e6);
  SendAt(conns[1], MakeInsert(3, MakeTweet(2, 30, 2)), 2e6);
  SendAt(conns[3], MakeInsert(4, MakeTweet(2, 40, 2)), 1e6);
  EXPECT_EQ(srv.PollUntilIdle(), 4u);
  EXPECT_EQ(UserOf(&ds, 1), 10u);
  EXPECT_EQ(UserOf(&ds, 2), 30u);
  EXPECT_EQ(srv.stats().queue_wait_us_total, 0.0);
}

// ---------------------------------------------------------------------------
// Concurrent-client stress (TSan)
// ---------------------------------------------------------------------------

TEST(ServerStressTest, ConcurrentClientsAndWorkers) {
  // Multi-queue on both engines: with gcd(storage, log) = 2 queue classes,
  // the 2 workers genuinely dispatch in parallel (one class each) — with
  // single-queue engines the partitioner would rightly serialize them.
  EnvOptions eo = TestEnv();
  eo.io_queues = 2;
  Env env(eo);
  DatasetOptions o = Opts(MaintenanceStrategy::kEager);
  o.writer_threads = 4;  // concurrent dispatch takes the pipeline path
  o.log_queues = 2;
  Dataset ds(&env, o);
  ServerOptions so;
  so.worker_threads = 2;
  RequestServer srv(&ds, so);

  constexpr int kClients = 4;
  constexpr uint64_t kOpsPerClient = 120;
  std::vector<ClientConnection*> conns;
  for (int i = 0; i < kClients; i++) conns.push_back(srv.Connect());

  std::atomic<uint64_t> responses{0};
  std::atomic<bool> stop{false};
  // Server loop: one thread polling (dispatch fans over the worker pool).
  std::thread server_thread([&] {
    while (!stop.load()) {
      srv.Poll();
    }
    srv.PollUntilIdle();
  });

  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; i++) {
    clients.emplace_back([&, i] {
      ClientConnection* c = conns[size_t(i)];
      uint64_t received = 0;
      for (uint64_t k = 0; k < kOpsPerClient; k++) {
        const uint64_t id = uint64_t(i) * 10000 + k + 1;
        Request req;
        if (k % 3 == 2) {
          req.request_id = id;
          req.type = RequestType::kGet;
          req.id = id - 1;
        } else {
          req = MakeInsert(id, MakeTweet(id, uint64_t(i), id));
        }
        c->Send(req.EncodeFrame());
        received += c->Receive().size();
      }
      while (received < kOpsPerClient) {
        received += c->Receive().size();
        std::this_thread::yield();
      }
      responses.fetch_add(received);
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  server_thread.join();

  EXPECT_EQ(responses.load(), uint64_t(kClients) * kOpsPerClient);
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.requests_dispatched, uint64_t(kClients) * kOpsPerClient);
  EXPECT_EQ(st.decode_errors, 0u);
  EXPECT_EQ(st.inflight_requests, 0u);
  // Every insert landed exactly once.
  EXPECT_EQ(ds.num_records(), uint64_t(kClients) * (kOpsPerClient - kOpsPerClient / 3));
}

// Disconnect racing Poll: clients park paginated cursors, pull
// continuations, and disconnect mid-pagination while the server thread
// keeps polling. The dispatcher must never destroy a cursor that a worker
// is pulling from (TSan catches the use-after-free this guards).
TEST(ServerStressTest, DisconnectDuringCursorContinuations) {
  Env env(TestEnv());
  Dataset ds(&env, Opts(MaintenanceStrategy::kEager));
  for (uint64_t id = 1; id <= 200; id++) {
    ASSERT_TRUE(ds.Upsert(MakeTweet(id, id % 8, id)).ok());
  }
  ASSERT_TRUE(ds.FlushAll().ok());
  RequestServer srv(&ds, ServerOptions{});

  constexpr int kClients = 4;
  std::vector<ClientConnection*> conns;
  for (int i = 0; i < kClients; i++) conns.push_back(srv.Connect());

  std::atomic<bool> stop{false};
  std::thread server_thread([&] {
    while (!stop.load()) srv.Poll();
  });

  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; i++) {
    clients.emplace_back([&, i] {
      ClientConnection* c = conns[size_t(i)];
      for (int round = 0; round < 20; round++) {
        Request q;
        q.request_id = uint64_t(i) * 1000 + uint64_t(round) + 1;
        q.type = RequestType::kQuery;
        q.range_lo = 0;
        q.range_hi = 8;
        q.limit = 40;
        q.page_size = 4;
        c->Send(q.EncodeFrame());
        // Pull a few continuation pages, then abandon the cursor: the
        // disconnect below drops it while pulls may still be in flight.
        int pages = 0;
        while (pages < 3) {
          for (Response& r : c->Receive()) {
            pages++;
            if (r.code == ResponseCode::kOk && !r.done && r.cursor_id != 0) {
              Request next;
              next.request_id = r.request_id;
              next.type = RequestType::kCursorNext;
              next.cursor_id = r.cursor_id;
              c->Send(next.EncodeFrame());
            }
          }
          std::this_thread::yield();
        }
      }
      srv.Disconnect(c);
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  server_thread.join();
  srv.PollUntilIdle();
  EXPECT_EQ(srv.stats().decode_errors, 0u);
}

}  // namespace
}  // namespace auxlsm
