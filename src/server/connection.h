// One simulated client connection of the request server (PR 9).
//
// A ClientConnection is a duplex byte stream between one client and the
// RequestServer, modeled after iproto's per-connection input queues: the
// client appends encoded request frames with Send() and drains decoded
// responses with Receive(); the server side moves inbound bytes into a
// private decode buffer, extracts complete frames (tolerating torn tails
// and skipping damaged frames — see server/protocol.h), and queues the
// decoded requests for per-connection batched dispatch.
//
// Thread model: Send() and Receive() are safe to call from one client
// thread concurrently with the server's dispatch loop (the buffers are
// mutex-guarded); the decode buffer, pending queue, and completion clock
// are touched only by the server (single dispatch thread, or the one worker
// that owns the connection's device-queue partition when the server fans
// rounds out — requests of one connection are never processed
// concurrently, preserving per-connection FIFO exactly like a real
// per-socket input queue). Across connections the server interleaves
// requests in modeled eligibility order (server/server.h).
//
// Device affinity: connection i binds to storage queue (i % Q) and log
// queue (i % Qlog), so a multi-queue DeviceProfile serves connections'
// I/O on overlapping modeled clocks (the PR 3 affinity rules applied to
// the service edge).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stat_counter.h"
#include "common/thread_annotations.h"
#include "server/protocol.h"

namespace auxlsm {

class FaultInjector;

namespace server {

/// Relaxed atomics (StatCounter): bumped by the dispatch loop, read by
/// concurrent stats()/MetricsSnapshot() pollers.
struct ConnectionStats {
  StatCounter requests_decoded;
  StatCounter decode_errors;   ///< damaged frames surfaced as error responses
  StatCounter responses_sent;
  StatCounter batches;         ///< dispatch batches taken from this connection
  StatCounter batched_requests;
  StatCounter max_batch;       ///< largest single dispatch batch
};

class ClientConnection {
 public:
  uint64_t id() const { return id_; }
  /// Storage-device queue this connection's requests are charged to.
  uint32_t io_queue() const { return io_queue_; }
  /// Log-device queue its commits are charged to.
  uint32_t log_queue() const { return log_queue_; }

  // --- Client side ----------------------------------------------------------
  /// Appends encoded request frames to the inbound stream (thread-safe).
  void Send(const std::string& bytes);
  /// Drains and decodes the outbound stream into responses (thread-safe).
  /// Truncated response tails wait for more bytes; the server never writes
  /// damaged frames, so a decode failure here aborts in tests.
  std::vector<Response> Receive();

  const ConnectionStats& stats() const { return stats_; }
  /// Decoded requests awaiting dispatch (server-side backlog gauge).
  size_t pending_requests() const;

 private:
  friend class RequestServer;

  ClientConnection(uint64_t id, uint32_t io_queue, uint32_t log_queue)
      : id_(id), io_queue_(io_queue), log_queue_(log_queue) {}

  /// Server side: moves inbound bytes into the decode buffer and extracts
  /// complete frames. Damaged frames — including frames dropped by a fired
  /// server.decode_frame failpoint — produce immediate error responses
  /// (written to the outbound stream) instead of reaching the dataset.
  /// Returns the number of requests decoded.
  size_t DecodeInbound(size_t max_frame_bytes, FaultInjector* fault,
                       std::vector<Response>* decode_failures);

  /// Server side: takes up to max_batch pending requests as one batch.
  std::vector<Request> TakeBatch(size_t max_batch);

  /// Server side: encodes and writes one response to the outbound stream.
  void Write(const Response& response);

  const uint64_t id_;
  const uint32_t io_queue_;
  const uint32_t log_queue_;

  // Unranked stream mutexes: held only for the byte-buffer splice itself,
  // never while calling into the engine.
  mutable Mutex in_mu_;
  std::string inbox_ GUARDED_BY(in_mu_);  ///< client -> server bytes
  mutable Mutex out_mu_;
  std::string outbox_ GUARDED_BY(out_mu_);  ///< server -> client bytes

  // Server-only state (never touched concurrently; see thread model above).
  std::string decode_buf_;  ///< partial-frame residue across polls
  mutable Mutex pending_mu_;  ///< pending_ size is read by gauges
  /// Decoded requests awaiting dispatch.
  std::deque<Request> pending_ GUARDED_BY(pending_mu_);
  /// Modeled completion time of this connection's last finished request:
  /// per-connection responses complete in FIFO order on the virtual clock,
  /// so the next request becomes eligible no earlier than this.
  double last_completion_us_ = 0;
  ConnectionStats stats_;
};

}  // namespace server
}  // namespace auxlsm
