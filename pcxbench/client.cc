#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace pcxbench {

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

namespace {

bool WaitReadable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&p, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  return rc > 0;
}

bool TakeLine(std::string& buffer, std::string* line) {
  const size_t nl = buffer.find('\n');
  if (nl == std::string::npos) return false;
  line->assign(buffer, 0, nl);
  buffer.erase(0, nl + 1);
  return true;
}

}  // namespace

// ----------------------------------------------------------- ChildProcess

ChildProcess::~ChildProcess() {
  if (pid_ > 0) {
    int status = 0;
    Stop(/*terminate=*/true, &status);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         const std::string& stderr_path, std::string* error) {
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const int err_fd = ::open(stderr_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (err_fd < 0) {
    *error = "cannot open " + stderr_path;
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_fd);
    return false;
  }
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  ::close(err_fd);
  pid_ = pid;
  stdout_fd_ = out_pipe[0];
  return true;
}

bool ChildProcess::ReadLine(std::string* line, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!TakeLine(pending_, line)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0 || !WaitReadable(stdout_fd_, left.count())) {
      return false;
    }
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    pending_.append(chunk, static_cast<size_t>(n));
  }
  return true;
}

double ChildProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
    }
  }
  return -1.0;
}

double ChildProcess::Stop(bool terminate, int* exit_status) {
  if (pid_ <= 0) return -1.0;
  if (terminate) ::kill(pid_, SIGTERM);
  int status = 0;
  rusage usage{};
  pid_t rc;
  do {
    rc = ::wait4(pid_, &status, 0, &usage);
  } while (rc < 0 && errno == EINTR);
  pid_ = -1;
  if (rc < 0) return -1.0;
  *exit_status = status;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ------------------------------------------------------------- Connection

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Open(uint16_t port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool Connection::Send(const std::string& line) {
  const std::string data = line + "\n";
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::Fill(int timeout_ms) {
  if (!WaitReadable(fd_, timeout_ms)) return timeout_ms == 0;
  char chunk[16384];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(chunk)) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // EOF or error
  }
}

bool Connection::PopLine(std::string* line) { return TakeLine(buffer_, line); }

bool Connection::ReadLine(std::string* line, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!PopLine(line)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0 || !WaitReadable(fd_, left.count()) || !Fill(0)) {
      return false;
    }
  }
  return true;
}

bool Connection::RoundTrip(const std::string& line, std::string* reply) {
  return Send(line) && ReadLine(reply);
}

bool Connection::Metrics(std::string* exposition) {
  std::string header;
  if (!RoundTrip("METRICS", &header) || header.rfind("METRICS ", 0) != 0) {
    return false;
  }
  const long lines = std::strtol(header.c_str() + 8, nullptr, 10);
  exposition->clear();
  for (long i = 0; i < lines; ++i) {
    std::string line;
    if (!ReadLine(&line)) return false;
    *exposition += line;
    *exposition += '\n';
  }
  return true;
}

// --------------------------------------------------------------- RunLoad

namespace {

struct InFlight {
  Op op;
  Clock::time_point sent;
  bool lead_pending = false;  ///< the lead's reply has not arrived yet
};

struct StreamState {
  std::deque<InFlight> inflight;
  bool broken = false;
  /// Paced streams: the earliest time of the next send.
  Clock::time_point next_send;
};

constexpr size_t kMaxFailureNotes = 8;
constexpr int kDrainTimeoutMs = 20000;

void NoteFailure(LoadResult& result, const std::string& note) {
  ++result.failed;
  if (result.failures.size() < kMaxFailureNotes) {
    result.failures.push_back(note);
  }
}

}  // namespace

LoadResult RunLoad(std::vector<Stream>& streams, double seconds,
                   size_t kinds) {
  LoadResult result;
  result.latency_us.resize(kinds);
  std::vector<StreamState> state(streams.size());

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_sending =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point give_up =
      stop_sending + std::chrono::milliseconds(kDrainTimeoutMs);
  std::vector<Clock::duration> pace(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    pace[i] = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(streams[i].pace_s));
    state[i].next_send = start;
  }

  // Sends what stream i may send now: up to its depth outstanding and,
  // when paced, one request per pace interval (a stall does not earn a
  // catch-up burst beyond its depth).
  auto top_up = [&](size_t i, Clock::time_point now) {
    StreamState& st = state[i];
    while (!st.broken && now < stop_sending &&
           st.inflight.size() < streams[i].depth && st.next_send <= now) {
      Op op = streams[i].next();
      const bool lead = !op.lead.empty();
      result.attempted += lead ? 2 : 1;
      if (!streams[i].conn->Send(lead ? op.lead + "\n" + op.line : op.line)) {
        st.broken = true;
        NoteFailure(result, "send failed: " + op.line);
        return;
      }
      st.inflight.push_back(InFlight{std::move(op), Clock::now(), lead});
      if (pace[i] > Clock::duration::zero()) {
        const Clock::duration slack =
            pace[i] * static_cast<long>(streams[i].depth);
        st.next_send = std::max(st.next_send, now - slack) + pace[i];
      }
    }
  };

  std::vector<pollfd> fds(streams.size());
  std::string reply;
  while (true) {
    Clock::time_point now = Clock::now();
    size_t outstanding = 0;
    std::chrono::microseconds timeout(100000);
    for (size_t i = 0; i < streams.size(); ++i) {
      top_up(i, now);
      const StreamState& st = state[i];
      fds[i] = pollfd{streams[i].conn->fd(),
                      static_cast<short>(st.broken ? 0 : POLLIN), 0};
      if (st.broken) continue;
      outstanding += st.inflight.size();
      if (now < stop_sending && st.inflight.size() < streams[i].depth) {
        // Waiting for a pacing slot: wake up for it.
        timeout = std::min(timeout,
                           std::chrono::duration_cast<std::chrono::microseconds>(
                               st.next_send - now));
      }
    }
    if (outstanding == 0 && now >= stop_sending) break;
    if (now >= give_up) break;
    const long wait_us = std::max<long>(timeout.count(), 0);
    const timespec wait{wait_us / 1000000, (wait_us % 1000000) * 1000};
    const int rc = ::ppoll(fds.data(), fds.size(), &wait, nullptr);
    if (rc < 0 && errno != EINTR) break;
    for (size_t i = 0; i < streams.size(); ++i) {
      if (state[i].broken ||
          (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      Connection& conn = *streams[i].conn;
      if (!conn.Fill(0)) state[i].broken = true;
      while (!state[i].inflight.empty() && conn.PopLine(&reply)) {
        const Clock::time_point done = Clock::now();
        InFlight& front = state[i].inflight.front();
        if (front.lead_pending) {
          front.lead_pending = false;
          if (reply.rfind(front.op.lead_expect, 0) != 0) {
            NoteFailure(result, front.op.lead + " -> '" + reply + "'");
          } else if (front.op.on_lead_reply) {
            front.op.on_lead_reply(reply);
          }
          continue;
        }
        InFlight f = std::move(front);
        state[i].inflight.pop_front();
        const bool ok =
            f.op.prefix ? reply.rfind(f.op.expect, 0) == 0 : reply == f.op.expect;
        if (ok) {
          // Every request was sent inside the window (top_up stops at
          // stop_sending), so every good reply is a sample.
          result.latency_us[static_cast<size_t>(f.op.kind)].push_back(
              MicrosBetween(f.sent, done));
        } else {
          NoteFailure(result, f.op.line + " -> '" + reply + "' want '" +
                                  f.op.expect + "'");
        }
        top_up(i, done);
      }
    }
  }
  result.elapsed_s =
      std::chrono::duration<double>(std::min(Clock::now(), stop_sending) - start)
          .count();
  for (StreamState& s : state) {
    for (const InFlight& f : s.inflight) {
      NoteFailure(result, "no reply: " + f.op.line);
    }
  }
  return result;
}

}  // namespace pcxbench
