// Event-loop transport tests: cross-connection BOUND coalescing while
// every solver worker is busy, prompt dispatch while one is free (an
// idle connection delays nothing), per-request streaming of a batch's
// replies (a cheap request never waits on an expensive batch-mate; one
// connection's replies stay in request order and byte-identical to the
// unsharded solver's), admission control (per-connection and global
// caps answering typed ERR UNAVAILABLE), overload counters in
// STATS/HEALTH, full recovery after an overload burst, and fd hygiene
// across many short sessions.
//
// Determinism notes exploited throughout: the loop applies solver
// completions only on wake-pipe events, and decides whether to dispatch
// the pending BOUNDs (only if a pool worker is free) only at the end of
// an event sweep — max_batch aside. So every line of one pipelined send
// is admitted/rejected in one sweep with no completions interleaved —
// which makes the expected reply sequence of an overload burst exact,
// not probabilistic. And a blocker (StartBlocker: one kExpensiveBound,
// tens of ms or more) holds a pool worker busy, so BOUNDs sent while it
// runs gather into one batch instead of racing the dispatch.

#include <gtest/gtest.h>

#ifdef __linux__

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/text.h"
#include "pc/bound_solver.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "scratch_dir.h"

namespace pcx {
namespace {

PredicateConstraintSet SensorSet() {
  PredicateConstraintSet pcs;
  {
    Predicate pred(3);
    pred.AddRange(0, 0, 23);
    Box values(3);
    values.Constrain(2, Interval::Closed(10, 50));
    pcs.Add(PredicateConstraint(pred, values, {2, 5}));
  }
  {
    Predicate pred(3);
    pred.AddRange(0, 24, 47);
    Box values(3);
    values.Constrain(2, Interval::Closed(0, 30));
    pcs.Add(PredicateConstraint(pred, values, {0, 4}));
  }
  return pcs;
}

std::string WriteTestSnapshot(const std::string& tag) {
  const auto pcs = SensorSet();
  const std::vector<AttrDomain> domains = {AttrDomain::kInteger,
                                           AttrDomain::kContinuous,
                                           AttrDomain::kContinuous};
  const Partition p =
      PartitionPcSet(pcs, domains, {2, PartitionStrategy::kAttributeRange});
  const Snapshot snap = MakeSnapshot(pcs, domains, p, 1);
  const std::string path =
      TestScratchDir() + "/event_loop_" + tag + ".pcxsnap";
  PCX_CHECK(WriteSnapshot(snap, path).ok());
  return path;
}

/// The expected reply to "BOUND COUNT 0" over SensorSet().
constexpr const char* kCountReply =
    "RANGE lo=2 hi=9 defined=1 empty_possible=0\n";

const std::vector<AttrDomain> kOverlapDomains = {
    AttrDomain::kInteger, AttrDomain::kContinuous, AttrDomain::kContinuous};

/// 40 heavily overlapping boxes over attributes 0 and 1, and one far
/// constraint on its own at attribute 0 in [1000, 1023]. AVG over the
/// whole set takes the MILP path over many cells (tens of ms or more);
/// a COUNT inside the far box touches only the far constraint.
PredicateConstraintSet OverlapSet() {
  PredicateConstraintSet pcs;
  for (int i = 0; i < 40; ++i) {
    Predicate pred(3);
    pred.AddRange(0, (i * 7) % 20, (i * 7) % 20 + 25);
    pred.AddRange(1, (i * 11) % 17, (i * 11) % 17 + 25);
    Box values(3);
    values.Constrain(2, Interval::Closed(i % 5, 20 + (i * 3) % 13));
    pcs.Add(PredicateConstraint(
        pred, values,
        {static_cast<double>(i % 3), static_cast<double>(3 + i % 7)}));
  }
  Predicate far(3);
  far.AddRange(0, 1000, 1023);
  Box values(3);
  values.Constrain(2, Interval::Closed(0, 5));
  pcs.Add(PredicateConstraint(far, values, {1, 2}));
  return pcs;
}

std::string WriteOverlapSnapshot() {
  const auto pcs = OverlapSet();
  const Partition p = PartitionPcSet(pcs, kOverlapDomains,
                                     {2, PartitionStrategy::kAttributeRange});
  const std::string path = TestScratchDir() + "/event_loop_overlap.pcxsnap";
  PCX_CHECK(WriteSnapshot(MakeSnapshot(pcs, kOverlapDomains, p, 1), path)
                .ok());
  return path;
}

constexpr const char* kExpensiveBound = "BOUND AVG 2";
constexpr const char* kCheapBound = "BOUND COUNT 0 {0:[1000,1010]}";

/// The reply the unsharded PcBoundSolver gives `request` over
/// OverlapSet() — what the sharded, coalesced path must match byte for
/// byte.
std::string UnshardedReply(const std::string& request) {
  const PcBoundSolver solver(OverlapSet(), kOverlapDomains);
  const StatusOr<AggQuery> query =
      ParseBoundRequest(SplitWhitespace(request), 3);
  PCX_CHECK(query.ok()) << query.status();
  const StatusOr<ResultRange> range = solver.Bound(*query);
  PCX_CHECK(range.ok()) << range.status();
  std::ostringstream out;
  PrintResultRange(out, "RANGE ", *range);
  return out.str();
}

class EventLoopTestServer {
 public:
  explicit EventLoopTestServer(const EventLoopListener::Options& options,
                               const std::string& snapshot) {
    PCX_CHECK(server_.LoadSnapshotFile(snapshot).ok());
    StatusOr<EventLoopListener> listener = EventLoopListener::Bind(0);
    PCX_CHECK(listener.ok()) << listener.status();
    listener_.emplace(std::move(listener).value());
    thread_ = std::thread([this, options] {
      serve_status_ = listener_->Serve(server_, options);
    });
  }
  ~EventLoopTestServer() {
    listener_->Shutdown();
    thread_.join();
  }

  uint16_t port() const { return listener_->port(); }
  BoundServer& server() { return server_; }
  const Status& serve_status() const { return serve_status_; }

 private:
  BoundServer server_;
  std::optional<EventLoopListener> listener_;
  Status serve_status_;
  std::thread thread_;
};

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PCX_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  PCX_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

void SendAll(int fd, const std::string& text) {
  size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t w =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    PCX_CHECK(w > 0);
    sent += static_cast<size_t>(w);
  }
}

/// Reads exactly `lines` newline-terminated replies (blocking).
std::vector<std::string> RecvLines(int fd, size_t lines) {
  std::vector<std::string> out;
  std::string buffer;
  char chunk[4096];
  while (out.size() < lines) {
    const size_t at = buffer.find('\n');
    if (at != std::string::npos) {
      out.push_back(buffer.substr(0, at + 1));
      buffer.erase(0, at + 1);
      continue;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    PCX_CHECK(n > 0) << "peer closed after " << out.size() << " lines";
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

std::string QueryOneLine(uint16_t port, const std::string& request) {
  const int fd = RawConnect(port);
  SendAll(fd, request + "\n");
  const std::string reply = RecvLines(fd, 1)[0];
  ::close(fd);
  return reply;
}

/// "key=value" extraction from a STATS/HEALTH reply line.
uint64_t CounterIn(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  PCX_CHECK(at != std::string::npos) << key << " not in: " << line;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

/// Blocks until the server has accepted `count` open connections, so a
/// test's requests cannot race the accept of a later connection.
void WaitForOpenConnections(EventLoopTestServer& server, int64_t count) {
  for (int spin = 0; spin < 2000; ++spin) {
    if (server.server().transport().open_connections.value() == count) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "server never reached " << count << " open connections";
}

/// Blocks until `depth` requests are admitted and unanswered.
void WaitForQueueDepth(EventLoopTestServer& server, int64_t depth) {
  for (int spin = 0; spin < 2000; ++spin) {
    if (server.server().transport().queue_depth.value() == depth) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "server never reached queue_depth " << depth;
}

/// Batches dispatched for `reason` (pcx_coalesce_dispatch_total).
uint64_t DispatchCount(EventLoopTestServer& server, const std::string& reason) {
  return server.server()
      .metrics()
      .GetCounter("pcx_coalesce_dispatch_total", {{"reason", reason}})
      .value();
}

/// Occupies one pool worker: sends kExpensiveBound on a new connection
/// and returns that connection once the request's one-element batch is
/// dispatched, so BOUNDs sent afterwards arrive while the worker is
/// busy. The caller reads the blocker's reply and closes it.
int StartBlocker(EventLoopTestServer& server) {
  const Counter& batches = server.server().transport().coalesced_batches;
  const uint64_t before = batches.value();
  const int fd = RawConnect(server.port());
  SendAll(fd, std::string(kExpensiveBound) + "\n");
  for (int spin = 0; spin < 2000; ++spin) {
    if (batches.value() > before) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "the blocker was never dispatched";
  return fd;
}

size_t OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  PCX_CHECK(dir != nullptr);
  size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(EventLoopTest, CoalescesBoundsAcrossConnections) {
  const std::string cheap = UnshardedReply(kCheapBound);
  const std::string expensive = UnshardedReply(kExpensiveBound);
  EventLoopListener::Options options;
  options.solver_threads = 2;
  EventLoopTestServer server(options, WriteOverlapSnapshot());

  // Both workers busy: all five clients' requests arrive while no
  // worker is free, so the coalescer must fold requests from
  // *different* connections into one batch.
  const std::vector<int> blockers = {StartBlocker(server),
                                     StartBlocker(server)};
  constexpr size_t kClients = 5;
  std::vector<int> fds;
  for (size_t c = 0; c < kClients; ++c) {
    fds.push_back(RawConnect(server.port()));
  }
  for (const int fd : fds) SendAll(fd, std::string(kCheapBound) + "\n");
  for (const int fd : fds) {
    EXPECT_EQ(RecvLines(fd, 1)[0], cheap);
    ::close(fd);
  }
  for (const int fd : blockers) {
    EXPECT_EQ(RecvLines(fd, 1)[0], expensive);
    ::close(fd);
  }

  const std::string stats = QueryOneLine(server.port(), "STATS");
  EXPECT_EQ(CounterIn(stats, "coalesced_reqs"), kClients + blockers.size());
  EXPECT_GE(CounterIn(stats, "coalesced_batches"), 1u);
  // The acceptance signal of the whole design: at least one batch held
  // requests from more than one connection.
  EXPECT_GT(CounterIn(stats, "max_batch"), 1u);
  EXPECT_EQ(CounterIn(stats, "overload_rejects"), 0u);
  EXPECT_EQ(CounterIn(stats, "queue_depth"), 0u);
}

TEST(EventLoopTest, RequestsArrivingWhileEveryWorkerIsBusyShareOneBatch) {
  const std::string cheap = UnshardedReply(kCheapBound);
  EventLoopListener::Options options;
  options.solver_threads = 1;
  EventLoopTestServer server(options, WriteOverlapSnapshot());

  const int blocker = StartBlocker(server);
  constexpr size_t kClients = 5;
  std::vector<int> fds;
  for (size_t c = 0; c < kClients; ++c) {
    fds.push_back(RawConnect(server.port()));
  }
  for (const int fd : fds) SendAll(fd, std::string(kCheapBound) + "\n");
  // All five admitted and still pending behind the blocker.
  WaitForQueueDepth(server, 1 + kClients);
  for (const int fd : fds) {
    EXPECT_EQ(RecvLines(fd, 1)[0], cheap);
    ::close(fd);
  }
  EXPECT_EQ(RecvLines(blocker, 1)[0], UnshardedReply(kExpensiveBound));
  ::close(blocker);

  // The blocker's batch, then one batch of all five, each dispatched as
  // soon as the one worker was free.
  const std::string stats = QueryOneLine(server.port(), "STATS");
  EXPECT_EQ(CounterIn(stats, "max_batch"), kClients);
  EXPECT_EQ(CounterIn(stats, "coalesced_batches"), 2u);
  EXPECT_EQ(DispatchCount(server, "worker_free"), 2u);
  EXPECT_EQ(DispatchCount(server, "max_batch"), 0u);
}

TEST(EventLoopTest, IdleConnectionDoesNotDelayABound) {
  EventLoopListener::Options options;
  options.solver_threads = 1;
  EventLoopTestServer server(options, WriteTestSnapshot("idle_no_delay"));

  // An open connection that never sends cannot hold a BOUND back: each
  // one goes out at the end of the sweep that read it, alone in its
  // batch, because the worker is free.
  const int idle = RawConnect(server.port());
  const int fd = RawConnect(server.port());
  WaitForOpenConnections(server, 2);
  constexpr size_t kRequests = 20;
  for (size_t i = 0; i < kRequests; ++i) {
    SendAll(fd, "BOUND COUNT 0\n");
    EXPECT_EQ(RecvLines(fd, 1)[0], kCountReply);
  }
  ::close(fd);
  ::close(idle);

  const Histogram& wait =
      server.server().metrics().GetHistogram("pcx_coalesce_wait_us");
  EXPECT_EQ(wait.count(), kRequests);
  EXPECT_LT(wait.Quantile(0.5), 1000.0);
  EXPECT_EQ(DispatchCount(server, "worker_free"), kRequests);
}

TEST(EventLoopTest, CheapRepliesDoNotWaitForAnExpensiveBatchMate) {
  const std::string cheap = UnshardedReply(kCheapBound);
  const std::string expensive = UnshardedReply(kExpensiveBound);
  EventLoopListener::Options options;
  options.solver_threads = 1;
  EventLoopTestServer server(options, WriteOverlapSnapshot());

  const int a = RawConnect(server.port());
  const std::vector<int> others = {RawConnect(server.port()),
                                   RawConnect(server.port()),
                                   RawConnect(server.port())};
  WaitForOpenConnections(server, 4);
  // While the blocker holds the one worker, B-D's cheap requests are
  // admitted first, then A's expensive one, so one batch holds all four
  // and solves A's last.
  const int blocker = StartBlocker(server);
  for (const int fd : others) SendAll(fd, std::string(kCheapBound) + "\n");
  WaitForQueueDepth(server, 4);
  SendAll(a, std::string(kExpensiveBound) + "\n");
  WaitForQueueDepth(server, 5);
  EXPECT_EQ(RecvLines(blocker, 1)[0], expensive);
  ::close(blocker);

  for (const int fd : others) EXPECT_EQ(RecvLines(fd, 1)[0], cheap);
  // B-D have their answers while A's request is still unanswered: the
  // HEALTH reply (inline, after B's answer) still counts it as queued.
  // Had the batch answered all four at once, the depth would read 0.
  SendAll(others[0], "HEALTH\n");
  EXPECT_EQ(CounterIn(RecvLines(others[0], 1)[0], "queue_depth"), 1u);
  EXPECT_EQ(RecvLines(a, 1)[0], expensive);
  for (const int fd : others) ::close(fd);
  ::close(a);

  // The blocker's batch, then B-D and A's.
  const std::string stats = QueryOneLine(server.port(), "STATS");
  EXPECT_EQ(CounterIn(stats, "coalesced_batches"), 2u);
  EXPECT_EQ(CounterIn(stats, "max_batch"), 4u);
  EXPECT_EQ(CounterIn(stats, "queue_depth"), 0u);
}

TEST(EventLoopTest, MixedBatchRepliesKeepRequestOrderAndIdentity) {
  const std::vector<std::string> requests = {kExpensiveBound, kCheapBound,
                                             kCheapBound};
  std::vector<std::string> expected;
  for (const std::string& r : requests) expected.push_back(UnshardedReply(r));
  EventLoopListener::Options options;
  // One pipelined send is read and admitted in one sweep, so all three
  // requests land in one batch. The batch fans out over the solver's
  // own threads, so the cheap replies may be ready before the expensive
  // one ahead of them.
  EventLoopTestServer server(options, WriteOverlapSnapshot());
  const Histogram& latency = server.server().metrics().GetHistogram(
      "pcx_request_latency_us", {{"verb", "BOUND"}});
  const uint64_t latency_before = latency.count();

  const int fd = RawConnect(server.port());
  std::string burst;
  for (const std::string& r : requests) burst += r + "\n";
  SendAll(fd, burst);
  EXPECT_EQ(RecvLines(fd, requests.size()), expected);
  ::close(fd);

  // One latency observation per BOUND, each at its own completion.
  EXPECT_EQ(latency.count() - latency_before, requests.size());
  const std::string stats = QueryOneLine(server.port(), "STATS");
  EXPECT_EQ(CounterIn(stats, "coalesced_batches"), 1u);
  EXPECT_EQ(CounterIn(stats, "max_batch"), requests.size());
}

TEST(EventLoopTest, PerConnectionPendingCapRejectsWithTypedError) {
  EventLoopListener::Options options;
  options.solver_threads = 1;
  options.max_conn_pending = 2;
  EventLoopTestServer server(options, WriteTestSnapshot("conncap"));

  // Five pipelined BOUNDs in one send, read in one sweep: the first two
  // are admitted (their batch goes out only when the sweep ends), the
  // last three exceed the per-connection cap. Replies come back in
  // request order: two RANGEs once the batch solves, then the three
  // typed rejections.
  const int fd = RawConnect(server.port());
  std::string burst;
  for (int i = 0; i < 5; ++i) burst += "BOUND COUNT 0\n";
  SendAll(fd, burst);
  const std::vector<std::string> replies = RecvLines(fd, 5);
  EXPECT_EQ(replies[0], kCountReply);
  EXPECT_EQ(replies[1], kCountReply);
  for (size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(replies[i].rfind("ERR UNAVAILABLE", 0), 0u) << replies[i];
  }

  // The connection survives its own rejections: the next request on the
  // same socket is served normally.
  SendAll(fd, "BOUND COUNT 0\n");
  EXPECT_EQ(RecvLines(fd, 1)[0], kCountReply);
  ::close(fd);

  const std::string health = QueryOneLine(server.port(), "HEALTH");
  EXPECT_EQ(CounterIn(health, "overload_rejects"), 3u);
  EXPECT_EQ(CounterIn(health, "queue_depth"), 0u);
}

TEST(EventLoopTest, GlobalQueueCapRejectsAndFullyRecovers) {
  EventLoopListener::Options options;
  options.solver_threads = 1;
  options.max_queue = 1;
  options.max_conn_pending = 64;
  EventLoopTestServer server(options, WriteTestSnapshot("queuecap"));

  // One admitted BOUND saturates max_queue=1; the two behind it in the
  // same pipelined send are shed with the typed rejection.
  const int fd = RawConnect(server.port());
  SendAll(fd, "BOUND COUNT 0\nBOUND COUNT 0\nBOUND COUNT 0\n");
  const std::vector<std::string> replies = RecvLines(fd, 3);
  EXPECT_EQ(replies[0], kCountReply);
  EXPECT_EQ(replies[1].rfind("ERR UNAVAILABLE", 0), 0u) << replies[1];
  EXPECT_EQ(replies[2].rfind("ERR UNAVAILABLE", 0), 0u) << replies[2];

  // Recovery: the queue drained with the batch, so the next request is
  // admitted — overload is a state, not a death sentence.
  SendAll(fd, "BOUND COUNT 0\n");
  EXPECT_EQ(RecvLines(fd, 1)[0], kCountReply);

  SendAll(fd, "STATS\n");
  const std::string stats = RecvLines(fd, 1)[0];
  ::close(fd);
  EXPECT_EQ(CounterIn(stats, "overload_rejects"), 2u);
  EXPECT_EQ(CounterIn(stats, "queue_depth"), 0u);
  EXPECT_EQ(CounterIn(stats, "queue_high_water"), 1u);
}

TEST(EventLoopTest, GroupByCountsAgainstAdmissionToo) {
  EventLoopListener::Options options;
  options.solver_threads = 1;
  options.max_conn_pending = 1;
  EventLoopTestServer server(options, WriteTestSnapshot("groupcap"));

  // A BOUND holds the one pending slot; the GROUPBY behind it must be
  // shed — admission control covers every solver-pool verb, or a
  // GROUPBY flood would bypass the cap entirely.
  const int fd = RawConnect(server.port());
  SendAll(fd, "BOUND COUNT 0\nGROUPBY COUNT 0 0 5,30\n");
  const std::vector<std::string> replies = RecvLines(fd, 2);
  EXPECT_EQ(replies[0], kCountReply);
  EXPECT_EQ(replies[1].rfind("ERR UNAVAILABLE", 0), 0u) << replies[1];

  // Alone in the pipeline, the same GROUPBY is served: GROUPS + groups.
  SendAll(fd, "GROUPBY COUNT 0 0 5,30\n");
  const std::vector<std::string> groups = RecvLines(fd, 3);
  EXPECT_EQ(groups[0], "GROUPS 2\n");
  EXPECT_EQ(groups[1].rfind("GROUP 5 ", 0), 0u) << groups[1];
  ::close(fd);
}

TEST(EventLoopTest, ManyShortSessionsLeakNoFdsOrCounters) {
  EventLoopListener::Options options;
  options.solver_threads = 2;
  EventLoopTestServer server(options, WriteTestSnapshot("fds"));

  // Settle: one probe session, then snapshot the process fd count.
  EXPECT_EQ(QueryOneLine(server.port(), "BOUND COUNT 0"), kCountReply);
  // The probe's server-side fd may linger an instant after the client
  // close returns; wait for open_conns to hit zero before baselining.
  WaitForOpenConnections(server, 0);
  const size_t baseline = OpenFdCount();

  constexpr size_t kSessions = 40;
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(QueryOneLine(server.port(), "BOUND COUNT 0"), kCountReply);
  }
  for (int spin = 0; spin < 2000; ++spin) {
    if (server.server().transport().open_connections.value() == 0 &&
        OpenFdCount() <= baseline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.server().transport().open_connections.value(), 0);
  EXPECT_EQ(OpenFdCount(), baseline);

  const std::string health = QueryOneLine(server.port(), "HEALTH");
  // open_conns=1: the HEALTH session itself is the one live connection.
  EXPECT_EQ(CounterIn(health, "open_conns"), 1u);
  EXPECT_EQ(CounterIn(health, "queue_depth"), 0u);
  EXPECT_EQ(CounterIn(health, "overload_rejects"), 0u);
  EXPECT_GE(CounterIn(health, "sessions"), kSessions + 1);
}

}  // namespace
}  // namespace pcx

#else  // !__linux__

TEST(EventLoopTest, SkippedOffLinux) { GTEST_SKIP() << "epoll is Linux-only"; }

#endif
