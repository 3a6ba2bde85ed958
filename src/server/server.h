// RequestServer: the async service layer over the storage engine (PR 9).
//
// The server multiplexes M simulated client connections onto the engine,
// closing ROADMAP open item 2. Clients write length-prefixed, CRC-framed
// request frames (server/protocol.h) into their connection's inbound
// stream; Poll() decodes each connection's stream, takes per-connection
// batches (iproto-style: one batch per connection per round, bounded by
// max_batch), and dispatches them through the Dispatcher — writes via the
// auto-commit ingest path, reads via ReadQuery/QueryCursor — under the
// connection's device-queue binding: connection i charges storage queue
// (i % Q) and log queue (i % Qlog), so a multi-queue device serves
// connections on overlapping modeled clocks.
//
// Modeled per-request latency (the Fig 24 measurement): the request's
// *service time* is the virtual-clock advance of its bound storage and log
// queues while it executes; its *latency* is completion - arrival on the
// modeled timeline, where
//
//   start      = max(arrival_us, device queue free, connection's last
//                    completion)        — G/G/1 per device queue, FIFO per
//                                         connection
//   completion = start + service_us
//
// and start - arrival is the request's queueing wait (ServerStats).
// Arrivals come from the open-loop driver (workload/open_loop.h) as Poisson
// stamps in modeled microseconds; a slow request queues later arrivals
// behind it (latency grows) instead of throttling them — the open-loop
// property. A request with arrival_us == 0 is treated as arriving at its
// start (latency == service time), which is the closed-loop degenerate.
//
// Dispatch order is work-conserving: within a round, the batches taken
// from every connection that shares a device queue are merged, and the
// request that became *eligible* first is served first — eligible =
// max(arrival, its connection's previous completion), the earliest modeled
// time it could start. A device queue therefore never sits idle while a
// request that has already arrived waits behind a later arrival of a
// lower-numbered connection, and each connection stays FIFO (only its head
// request is ever eligible). Serving connections one whole batch at a time
// instead would idle the queue until the current connection's next arrival
// and charge that idle time to every request of the connections behind it.
//
// Determinism: with worker_threads == 1 (default) one dispatch thread
// serves every connection in that order, so modeled completions and
// latencies are exact functions of the request streams — the fig24 serial
// DIGEST lines pin this. worker_threads > 1 fans the round over a pool.
// Connections are partitioned across workers by device-queue equivalence
// class (id % gcd(Q, Qlog)), which pins every connection that can charge a
// given DiskModel queue to one worker — the modeled queues are
// unsynchronized, so two workers must never share one — and each worker
// merges its partition the same way, so every device queue still serves in
// eligibility order. Only the interleaving *across* partitions depends on
// host scheduling, trading determinism for wall-clock speed exactly like
// the ingest pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "server/connection.h"
#include "server/dispatcher.h"
#include "server/protocol.h"

namespace auxlsm {

class Dataset;
class FaultInjector;
namespace obs {
class MetricsRegistry;
class Histogram;
class Tracer;
}  // namespace obs
class ThreadPool;

namespace server {

struct ServerOptions {
  /// Requests dispatched per connection per poll round.
  size_t max_batch = 16;
  /// 1 (default) = single deterministic dispatch thread. > 1 fans
  /// per-connection batches over a pool; pair with dataset
  /// writer_threads > 1 so concurrent writes take the pipeline path.
  size_t worker_threads = 1;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Server-side cursor budget per connection (kQuery continuations).
  size_t max_open_cursors_per_connection = 64;
  /// Record per-request modeled latencies for TakeLatencySamples().
  bool collect_latencies = true;
  /// server.decode_frame / server.dispatch failpoints; null disables.
  FaultInjector* fault_injector = nullptr;
  /// Optional registry: server.requests / server.responses /
  /// server.decode_errors / server.batches counters and the
  /// server.request_modeled_ns latency histogram. Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional tracer: a server.request span per dispatched request.
  obs::Tracer* tracer = nullptr;
};

/// Point-in-time server accounting: lifetime counters plus live backlog
/// gauges (also folded into Dataset::MetricsSnapshot() as server.*).
struct ServerStats {
  uint64_t connections = 0;
  uint64_t requests_decoded = 0;
  uint64_t decode_errors = 0;
  uint64_t requests_dispatched = 0;
  uint64_t responses_sent = 0;
  uint64_t batches = 0;
  uint64_t max_batch = 0;        ///< largest single dispatch batch
  uint64_t errors = 0;           ///< responses with code worse than kNotFound
  uint64_t retryable_errors = 0; ///< kRetryable subset
  double service_us_total = 0;   ///< summed modeled service time
  /// Summed modeled queueing wait (start - arrival) of stamped requests:
  /// their latencies sum to this plus their service times.
  double queue_wait_us_total = 0;
  // Live gauges.
  uint64_t inflight_requests = 0;  ///< decoded, not yet dispatched
  uint64_t open_cursors = 0;       ///< parked query continuations
};

class RequestServer {
 public:
  RequestServer(Dataset* dataset, ServerOptions options);
  ~RequestServer();

  RequestServer(const RequestServer&) = delete;
  RequestServer& operator=(const RequestServer&) = delete;

  /// Opens a new connection bound to storage queue (id % Q) and log queue
  /// (id % Qlog). The returned pointer stays valid for the server's
  /// lifetime. Not safe concurrently with Poll().
  ClientConnection* Connect();

  /// Closes a connection's server side: its parked cursors are dropped and
  /// its pending requests are no longer dispatched.
  void Disconnect(ClientConnection* conn);

  /// One round: decode every connection's inbound stream (damaged frames
  /// answer immediately), then take up to max_batch requests per connection
  /// and dispatch them earliest-eligible first (see the header comment).
  /// Returns the number of requests dispatched.
  size_t Poll();

  /// Polls until a round decodes and dispatches nothing.
  size_t PollUntilIdle();

  ServerStats stats() const;
  /// Drains the per-request modeled latencies recorded since the last call
  /// (collect_latencies only; microseconds).
  std::vector<double> TakeLatencySamples();

  Dispatcher* dispatcher() { return &dispatcher_; }
  const ServerOptions& options() const { return options_; }

 private:
  /// Serves one round for `conns`, which must include every connection
  /// that can charge their device queues: takes one batch from each and
  /// dispatches the merged batches earliest-eligible first. Returns the
  /// number of requests served.
  size_t DispatchRound(const std::vector<ClientConnection*>& conns);
  /// Executes one request under its connection's queue bindings, stamps it
  /// with the latency model and writes the response.
  void Serve(ClientConnection* conn, const Request& req);
  void WriteResponse(ClientConnection* conn, Response r);
  /// Sum of decoded-not-dispatched requests over open connections.
  uint64_t InflightLocked() const REQUIRES(conns_mu_);

  Dataset* const ds_;
  const ServerOptions options_;
  Dispatcher dispatcher_;
  std::unique_ptr<ThreadPool> pool_;  ///< worker_threads > 1 only
  /// gcd(storage queues, log queues): connections congruent mod this can
  /// never share a device queue, so workers partition on (id % stride).
  size_t queue_partition_stride_ = 1;

  // The three server mutexes are unranked: none is ever held while taking
  // a ranked engine lock (dispatch runs dataset calls lock-free between
  // them), and they never nest with each other.
  mutable Mutex conns_mu_;
  std::vector<std::unique_ptr<ClientConnection>> conns_ GUARDED_BY(conns_mu_);
  std::unordered_set<uint64_t> closed_ GUARDED_BY(conns_mu_);

  /// Modeled time each storage queue finishes its last served request —
  /// the G/G/1 server-busy state of the latency model.
  mutable Mutex model_mu_;
  std::vector<double> queue_next_free_us_ GUARDED_BY(model_mu_);

  mutable Mutex stats_mu_;
  uint64_t dispatched_ GUARDED_BY(stats_mu_) = 0;
  uint64_t errors_ GUARDED_BY(stats_mu_) = 0;
  uint64_t retryable_errors_ GUARDED_BY(stats_mu_) = 0;
  double service_us_total_ GUARDED_BY(stats_mu_) = 0;
  double queue_wait_us_total_ GUARDED_BY(stats_mu_) = 0;
  std::vector<double> latency_samples_ GUARDED_BY(stats_mu_);

  uint64_t metrics_source_id_ = 0;  ///< Dataset::AddMetricsSource handle
  StatCounter* ctr_requests_ = nullptr;
  StatCounter* ctr_responses_ = nullptr;
  StatCounter* ctr_decode_errors_ = nullptr;
  StatCounter* ctr_batches_ = nullptr;
  obs::Histogram* hist_latency_ = nullptr;  ///< server.request_modeled_ns
};

}  // namespace server
}  // namespace auxlsm
