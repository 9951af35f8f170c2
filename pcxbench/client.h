// Process and loopback-TCP plumbing of the pcx benchmark: a pcx_serve
// child on an ephemeral port, blocking control connections, and the
// single-threaded load generator that drives up to four connections.
#ifndef PCXBENCH_CLIENT_H_
#define PCXBENCH_CLIENT_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace pcxbench {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point from, Clock::time_point to);

/// A child process started from `argv`, stdout on a pipe, stderr to
/// `stderr_path`. The destructor kills and reaps it if Stop did not.
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess();

  /// Starts the child; false (with `*error`) when it cannot.
  bool Start(const std::vector<std::string>& argv,
             const std::string& stderr_path, std::string* error);
  /// Reads one stdout line, waiting at most `timeout_ms`.
  bool ReadLine(std::string* line, int timeout_ms);
  /// The running child's peak resident set so far in MB (VmHWM);
  /// negative when it cannot be read.
  double PeakRssMb() const;
  /// Waits for the child to exit (sending SIGTERM first when
  /// `terminate`). Returns its peak resident set in MB (ru_maxrss) and
  /// stores its exit status; negative on a wait failure.
  double Stop(bool terminate, int* exit_status);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;
};

/// A blocking line-protocol connection to 127.0.0.1:port.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  bool Open(uint16_t port, std::string* error);
  int fd() const { return fd_; }
  bool Send(const std::string& line);  ///< appends the newline
  /// Next reply line (no newline); false on EOF/error/timeout.
  bool ReadLine(std::string* line, int timeout_ms = 30000);
  /// Reads whatever the socket holds (waiting at most `timeout_ms`
  /// for the first byte); false on EOF or error.
  bool Fill(int timeout_ms);
  /// Takes one complete buffered line; false when none is buffered.
  bool PopLine(std::string* line);
  /// One request, one reply line.
  bool RoundTrip(const std::string& line, std::string* reply);
  /// METRICS: the counted exposition block, joined with newlines.
  bool Metrics(std::string* exposition);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One request of a load stream and how to judge its reply.
struct Op {
  std::string line;
  std::string expect;  ///< the exact reply, or its prefix
  bool prefix = false;
  int kind = 0;        ///< caller-defined latency class
  /// Optional line sent in the same write just ahead of `line` (its
  /// latency counts in this op's). Its one reply line must start with
  /// `lead_expect` and is handed to `on_lead_reply`.
  std::string lead;
  std::string lead_expect;
  std::function<void(const std::string&)> on_lead_reply;
};

/// A connection's request source: at most `depth` requests outstanding
/// (1 = closed loop), each produced by `next`. With `pace_s` > 0 the
/// stream also sends at most one request per `pace_s` seconds.
struct Stream {
  Connection* conn = nullptr;
  size_t depth = 1;
  double pace_s = 0.0;
  std::function<Op()> next;
};

struct LoadResult {
  /// Latency samples in microseconds, by Op::kind.
  std::vector<std::vector<double>> latency_us;
  size_t attempted = 0;
  size_t failed = 0;
  double elapsed_s = 0.0;  ///< the send window
  std::vector<std::string> failures;  ///< first few, for diagnosis
};

/// Drives every stream from the calling thread: sends until
/// `seconds` have passed, then waits (bounded) for the outstanding
/// replies. Each reply is checked against its Op; a wrong, ERR or
/// missing reply counts as failed.
LoadResult RunLoad(std::vector<Stream>& streams, double seconds,
                   size_t kinds);

}  // namespace pcxbench

#endif  // PCXBENCH_CLIENT_H_
