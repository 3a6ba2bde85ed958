#include "server/server.h"

#include <algorithm>
#include <functional>
#include <future>
#include <numeric>
#include <queue>
#include <utility>

#include "core/dataset.h"
#include "env/env.h"
#include "exec/thread_pool.h"
#include "io/io_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "txn/wal.h"

namespace auxlsm {
namespace server {

RequestServer::RequestServer(Dataset* dataset, ServerOptions options)
    : ds_(dataset),
      options_(options),
      dispatcher_(dataset, options.fault_injector,
                  options.max_open_cursors_per_connection) {
  queue_next_free_us_.assign(ds_->env()->io()->num_queues(), 0.0);
  // Two connections share a storage queue iff their ids are congruent mod
  // Qs, a log queue iff congruent mod Qlog. Congruence mod gcd(Qs, Qlog)
  // is implied by either, so partitioning workers on (id % gcd) puts every
  // pair of connections that can touch the same DiskModel queue on the
  // same worker — the queues themselves are unsynchronized.
  queue_partition_stride_ =
      std::gcd(std::max<uint32_t>(1, ds_->env()->io()->num_queues()),
               std::max<uint32_t>(1, ds_->wal()->io()->num_queues()));
  if (options_.worker_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }
  if (options_.metrics != nullptr) {
    ctr_requests_ = options_.metrics->counter("server.requests");
    ctr_responses_ = options_.metrics->counter("server.responses");
    ctr_decode_errors_ = options_.metrics->counter("server.decode_errors");
    ctr_batches_ = options_.metrics->counter("server.batches");
    hist_latency_ = options_.metrics->histogram("server.request_modeled_ns");
  }
  // Fold the service-side backlog into Dataset::MetricsSnapshot() /
  // DebugString() (satellite 6). Unregistered in the destructor — the
  // server must be torn down before its dataset.
  metrics_source_id_ = ds_->AddMetricsSource([this](obs::MetricsSnapshot* s) {
    const ServerStats st = stats();
    s->Set("server.connections", double(st.connections));
    s->Set("server.inflight_requests", double(st.inflight_requests));
    s->Set("server.dispatch_queue_depth", double(st.inflight_requests));
    s->Set("server.open_cursors", double(st.open_cursors));
    s->Set("server.requests_dispatched", double(st.requests_dispatched));
    s->Set("server.decode_errors", double(st.decode_errors));
    s->Set("server.errors", double(st.errors));
    s->Set("server.batch_max", double(st.max_batch));
    s->Set("server.batch_avg",
           st.batches > 0 ? double(st.requests_dispatched) / double(st.batches)
                          : 0);
    // Mean modeled latency of stamped requests = wait + service averages.
    const double n = double(std::max<uint64_t>(1, st.requests_dispatched));
    s->Set("server.queue_wait_us_avg", st.queue_wait_us_total / n);
    s->Set("server.service_us_avg", st.service_us_total / n);
  });
}

RequestServer::~RequestServer() {
  ds_->RemoveMetricsSource(metrics_source_id_);
}

ClientConnection* RequestServer::Connect() {
  MutexLock l(conns_mu_);
  const uint64_t id = conns_.size();
  const uint32_t storage_q =
      uint32_t(id % std::max<uint32_t>(1, ds_->env()->io()->num_queues()));
  const uint32_t log_q =
      uint32_t(id % std::max<uint32_t>(1, ds_->wal()->io()->num_queues()));
  conns_.emplace_back(new ClientConnection(id, storage_q, log_q));
  return conns_.back().get();
}

void RequestServer::Disconnect(ClientConnection* conn) {
  dispatcher_.CloseConnectionCursors(conn->id());
  MutexLock l(conns_mu_);
  closed_.insert(conn->id());
}

void RequestServer::WriteResponse(ClientConnection* conn, Response r) {
  conn->Write(r);
  if (ctr_responses_ != nullptr) *ctr_responses_ += 1;
}

size_t RequestServer::DispatchRound(
    const std::vector<ClientConnection*>& conns) {
  struct Lane {
    ClientConnection* conn;
    std::vector<Request> batch;
    size_t next = 0;
  };
  std::vector<Lane> lanes;
  for (ClientConnection* c : conns) {
    std::vector<Request> batch = c->TakeBatch(options_.max_batch);
    if (batch.empty()) continue;
    if (ctr_batches_ != nullptr) *ctr_batches_ += 1;
    lanes.push_back(Lane{c, std::move(batch)});
  }
  // A lane's head becomes eligible at max(arrival, its connection's last
  // completion); Serve() advances that completion, so a lane is re-keyed
  // after each of its requests. Ties go to the lower lane, i.e. the lower
  // connection id.
  auto eligible_us = [&lanes](size_t i) {
    const Lane& l = lanes[i];
    return std::max(l.batch[l.next].arrival_us, l.conn->last_completion_us_);
  };
  using Key = std::pair<double, size_t>;  // (eligible_us, lane)
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heads;
  for (size_t i = 0; i < lanes.size(); i++) heads.emplace(eligible_us(i), i);
  size_t served = 0;
  while (!heads.empty()) {
    const size_t i = heads.top().second;
    heads.pop();
    Lane& l = lanes[i];
    Serve(l.conn, l.batch[l.next++]);
    served++;
    if (l.next < l.batch.size()) heads.emplace(eligible_us(i), i);
  }
  return served;
}

void RequestServer::Serve(ClientConnection* conn, const Request& req) {
  IoEngine* const storage = ds_->env()->io();
  IoEngine* const log = ds_->wal()->io();
  // Bind this request's modeled I/O to the connection's device queues.
  IoQueueScope storage_scope(storage, conn->io_queue());
  IoQueueScope log_scope(log, conn->log_queue());
  const double storage_before = storage->BoundQueueClock();
  const double log_before = log->BoundQueueClock();
  Response resp;
  {
    obs::TraceSpan span(options_.tracer, "server.request", "server",
                        int32_t(conn->io_queue()));
    resp = dispatcher_.Execute(req, conn->id());
  }
  const double service_us = (storage->BoundQueueClock() - storage_before) +
                            (log->BoundQueueClock() - log_before);
  double start = 0, completion = 0;
  {
    MutexLock l(model_mu_);
    double& queue_free =
        queue_next_free_us_[conn->io_queue() % queue_next_free_us_.size()];
    start = std::max(queue_free, conn->last_completion_us_);
    if (req.arrival_us > 0) start = std::max(start, req.arrival_us);
    completion = start + service_us;
    queue_free = completion;
    conn->last_completion_us_ = completion;
  }
  const double latency_us =
      req.arrival_us > 0 ? completion - req.arrival_us : service_us;
  const double wait_us = req.arrival_us > 0 ? start - req.arrival_us : 0;
  resp.completion_us = completion;
  resp.latency_us = latency_us;
  const ResponseCode code = resp.code;
  WriteResponse(conn, std::move(resp));
  {
    MutexLock l(stats_mu_);
    dispatched_++;
    service_us_total_ += service_us;
    queue_wait_us_total_ += wait_us;
    if (code == ResponseCode::kRetryable) {
      errors_++;
      retryable_errors_++;
    } else if (code == ResponseCode::kBadRequest ||
               code == ResponseCode::kError) {
      errors_++;
    }
    if (options_.collect_latencies) latency_samples_.push_back(latency_us);
  }
  if (ctr_requests_ != nullptr) *ctr_requests_ += 1;
  if (hist_latency_ != nullptr) {
    hist_latency_->Record(uint64_t(latency_us * 1000.0));
  }
}

size_t RequestServer::Poll() {
  std::vector<ClientConnection*> open;
  {
    MutexLock l(conns_mu_);
    open.reserve(conns_.size());
    for (const auto& c : conns_) {
      if (closed_.count(c->id()) == 0) open.push_back(c.get());
    }
  }
  // Decode phase: damaged frames answer immediately with zero modeled
  // stamps — they never reach the latency model or the dataset.
  size_t total = 0;
  for (ClientConnection* c : open) {
    std::vector<Response> decode_failures;
    total += c->DecodeInbound(options_.max_frame_bytes,
                              options_.fault_injector, &decode_failures);
    for (Response& r : decode_failures) {
      if (ctr_decode_errors_ != nullptr) *ctr_decode_errors_ += 1;
      WriteResponse(c, std::move(r));
    }
  }
  // Dispatch phase: one batch per connection per round, served
  // earliest-eligible first (deterministic on the single-threaded path).
  if (pool_ == nullptr) return DispatchRound(open);
  // Partition connections over workers by device-queue equivalence class
  // (id % gcd of queue counts): every connection that can charge a given
  // storage or log DiskModel queue lands in one partition, so no two
  // workers share a queue and each queue's order is decided in one place.
  std::vector<std::vector<ClientConnection*>> parts(options_.worker_threads);
  for (ClientConnection* c : open) {
    parts[(c->id() % queue_partition_stride_) % parts.size()].push_back(c);
  }
  std::vector<std::future<size_t>> futures;
  for (const std::vector<ClientConnection*>& part : parts) {
    if (part.empty()) continue;
    futures.push_back(
        pool_->Submit([this, &part] { return DispatchRound(part); }));
  }
  size_t dispatched = 0;
  for (auto& f : futures) dispatched += f.get();
  return dispatched;
}

size_t RequestServer::PollUntilIdle() {
  size_t total = 0;
  for (;;) {
    const size_t n = Poll();
    total += n;
    if (n > 0) continue;
    // A round may decode without dispatching (or vice versa); idle means
    // no pending requests survived the round either.
    MutexLock l(conns_mu_);
    if (InflightLocked() == 0) break;
  }
  return total;
}

uint64_t RequestServer::InflightLocked() const {
  uint64_t inflight = 0;
  for (const auto& c : conns_) {
    if (closed_.count(c->id()) == 0) inflight += c->pending_requests();
  }
  return inflight;
}

ServerStats RequestServer::stats() const {
  ServerStats out;
  {
    MutexLock l(conns_mu_);
    out.connections = conns_.size() - closed_.size();
    out.inflight_requests = InflightLocked();
    for (const auto& c : conns_) {
      const ConnectionStats& cs = c->stats();
      out.requests_decoded += cs.requests_decoded.load();
      out.decode_errors += cs.decode_errors.load();
      out.responses_sent += cs.responses_sent.load();
      out.batches += cs.batches.load();
      out.max_batch = std::max(out.max_batch, cs.max_batch.load());
    }
  }
  {
    MutexLock l(stats_mu_);
    out.requests_dispatched = dispatched_;
    out.errors = errors_;
    out.retryable_errors = retryable_errors_;
    out.service_us_total = service_us_total_;
    out.queue_wait_us_total = queue_wait_us_total_;
  }
  out.open_cursors = dispatcher_.open_cursors();
  return out;
}

std::vector<double> RequestServer::TakeLatencySamples() {
  MutexLock l(stats_mu_);
  std::vector<double> out;
  out.swap(latency_samples_);
  return out;
}

}  // namespace server
}  // namespace auxlsm
