#ifndef PCX_SERVE_EVENT_LOOP_H_
#define PCX_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "serve/server.h"

namespace pcx {

/// Event-driven transport for BoundServer: one epoll loop owns every
/// connection, so ten thousand idle or slow clients cost one fd each
/// instead of one blocked thread each (the C10K architecture; the
/// thread-per-session TcpListener remains as the compatibility mode).
///
/// The loop exploits serving fan-in instead of merely surviving it:
/// BOUND requests that arrive across *different* connections while
/// every solver-pool worker is busy are gathered into one
/// ShardedBoundSolver::BoundBatch, dispatched at the end of the first
/// event sweep that finds a worker free (an idle pool dispatches each
/// sweep's BOUNDs at once; no clock is involved). Each reply
/// streams back to its connection as soon as its own query is solved,
/// never waiting for the batch-mates solved after it. Batch execution
/// pins the snapshot once, so every reply in a batch — like every reply
/// on the legacy transport — is computed at exactly one epoch, and
/// BoundBatch's bit-identity guarantee makes a coalesced answer
/// byte-identical to a sequential one.
///
/// Request/reply semantics are identical to TcpListener sessions by
/// construction: everything except the BOUND fast path is answered by
/// the same BoundServer::HandleLine, and BOUND uses the same parser and
/// reply formatter. Replies on one connection always come back in
/// request order (per-connection reply slots), even though GROUPBY/LOAD
/// run on pool workers while HEALTH/STATS answer inline.
///
/// Admission control instead of unbounded queueing: a request that
/// would push the solver queue past `max_queue`, or one connection past
/// `max_conn_pending` outstanding replies, is answered immediately with
/// a typed "ERR UNAVAILABLE ..." line — the client sees overload as a
/// retryable error (RemoteBackend::RetryPolicy) instead of an
/// ever-growing latency. Rejections, queue depth, and coalesced batch
/// sizes are reported through STATS/HEALTH (BoundServer::TransportStats).
///
/// Linux-only (epoll); Bind returns kUnimplemented elsewhere.
class EventLoopListener {
 public:
  /// Deeper than TcpListener's default: a C10K connect burst should
  /// queue in the kernel, not get connection-refused.
  static constexpr int kDefaultBacklog = 1024;

  struct Options {
    /// Serve returns once this many accepted connections have fully
    /// ended (0 = serve until Shutdown).
    size_t max_clients = 0;
    /// Workers executing coalesced BOUND batches and GROUPBY/LOAD
    /// requests (0 = 2). The loop thread itself never solves. Pending
    /// BOUNDs are dispatched as one batch at the end of an event sweep
    /// once fewer than this many pool tasks are running or queued, so
    /// batches grow with load; pcx_coalesce_dispatch_total{reason=
    /// "worker_free|max_batch|shutdown"} counts why each batch closed.
    size_t solver_threads = 2;
    /// Admission cap: BOUND/GROUPBY/LOAD requests admitted but not yet
    /// answered, across all connections. Beyond it: ERR UNAVAILABLE.
    size_t max_queue = 1024;
    /// Admission cap per connection: outstanding (unanswered) requests
    /// one client may pipeline. Beyond it: ERR UNAVAILABLE.
    size_t max_conn_pending = 64;
    /// Dispatch a batch within the sweep, workers busy or not, once it
    /// reaches this many requests.
    size_t max_batch = 256;
  };

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral).
  static StatusOr<EventLoopListener> Bind(uint16_t port,
                                          int backlog = kDefaultBacklog);

  EventLoopListener(EventLoopListener&& other) noexcept;
  EventLoopListener& operator=(EventLoopListener&& other) noexcept;
  EventLoopListener(const EventLoopListener&) = delete;
  EventLoopListener& operator=(const EventLoopListener&) = delete;
  ~EventLoopListener();

  /// The actual bound port (the kernel's pick when Bind got 0).
  uint16_t port() const { return port_; }

  /// Runs the event loop until Shutdown (or `max_clients` sessions have
  /// ended). Single-threaded: the calling thread becomes the loop.
  Status Serve(BoundServer& server, const Options& options);
  Status Serve(BoundServer& server) { return Serve(server, Options()); }

  /// Stops a Serve running on another thread: in-flight connections are
  /// disconnected, queued solver work is drained, Serve returns OK.
  /// Safe to call from any thread, any number of times.
  void Shutdown();

 private:
  EventLoopListener(int fd, uint16_t port, int wake_read, int wake_write);

  int fd_ = -1;
  uint16_t port_ = 0;
  /// Self-pipe: Shutdown() and pool workers write one byte to wake the
  /// epoll loop. Created at Bind so Shutdown works in any Serve state.
  int wake_read_ = -1;
  int wake_write_ = -1;
  /// Heap-allocated so Shutdown() stays valid across moves.
  std::shared_ptr<std::atomic<bool>> stopping_;
};

/// One-call convenience mirroring ServeTcp.
Status ServeEventLoop(BoundServer& server, uint16_t port,
                      const EventLoopListener::Options& options);

}  // namespace pcx

#endif  // PCX_SERVE_EVENT_LOOP_H_
