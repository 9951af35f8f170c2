// pcxbench — the end-to-end and per-layer benchmark of pcx.
//
//   pcxbench --workload <serve_interactive|solve_overlap|serve_mutate>
//            --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes a separate
// run on the same seed and inputs that scrapes the server's METRICS and
// STATS around the measured phase (never TRACE ON: traced BOUNDs bypass
// the coalescer) and replays the inputs in process through each
// module's public functions (replay.h). Every reply is
// checked byte for byte against the unsharded reference solver. The
// last stdout line is the JSON result; the exit code is non-zero when
// any answer was wrong, missing or an error.
//
// The serving workloads start the pcx_serve binary this program was
// built with (--event-loop on an ephemeral loopback port) and drive it
// from one client thread over at most four connections; solve_overlap
// runs Engine::Local in a child process of this binary
// (--solve-child), so that peak memory is the solver's alone.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "client.h"
#include "common/text.h"
#include "engine/engine.h"
#include "inputs.h"
#include "ledger.h"
#include "pc/serialization.h"
#include "replay.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace pcxbench {
namespace {

namespace fs = std::filesystem;

/// Unmeasured traffic before each measured phase (caches fill, lazy
/// set-up finishes).
constexpr double kWarmupSeconds = 1.0;
/// setup_s is the median of many set-ups. Figures from a shared 4-vCPU
/// KVM guest: a fresh server's first ten or so LOADs run up to twice as
/// slow as its later ones, so the median of 9 spread 0.32 (IQR/median)
/// across seeds, and the median of 16 consecutive LOADs drifts between
/// 27 and 50 ms within one process over a few seconds. Serve takes
/// kServeSetups LOADs before the warm-up and as many again after the
/// measured phase, so that the median samples both ends of the run.
/// 101 Engine::Local builds (~0.2 ms each) timed in one burst
/// catch the host in whatever state it is in for those 20 ms (the median
/// spread 0.55); solve times kSolveSetups builds before the
/// measured loop and a burst of kSolveSetupBurst every
/// kSolveSetupInterval inside it, so that the median samples the same
/// stretch of time as the queries, mostly with warm caches.
constexpr int kServeSetups = 24;
constexpr int kSolveSetups = 21;
constexpr int kSolveSetupBurst = 4;
constexpr std::chrono::milliseconds kSolveSetupInterval(50);
/// solve_overlap queries reserved for the child's warm-up.
constexpr size_t kSolveWarmupQueries = 100;
/// serve_mutate: a CHECKPOINT after every this many writes.
constexpr size_t kCheckpointEvery = 32;
/// serve_mutate: each of the three read connections keeps this many
/// BOUNDs outstanding (a closed loop), so a coalesced batch holds up to
/// 3 x kMutatePipeline of them. Figures from a shared 4-vCPU KVM guest
/// whose speed drifts by +-15% over seconds: a closed loop is clocked
/// by the server's own ~1 ms coalescing timer, and its p50 moved within
/// +-8% across seeds run interleaved, against +-40% for reads offered
/// as a Poisson stream at 3000/s (there, how many reads queued behind
/// the union-solver rebuilds that follow each write's epoch swap grew
/// with the host's slowness) and against a p50 that flipped between two
/// levels for reads on a fixed 1 ms grid (IQR/median 0.22-0.28). 16-deep
/// loops saturated the server.
constexpr size_t kMutatePipeline = 4;
/// serve_mutate: the writer's ceiling (writes and CHECKPOINTs per
/// second). pcx_serve applies a mutation inline on its event-loop
/// thread, so a writer at full speed keeps the loop busy nearly all the
/// time and the read figures swing with every fsync; at this rate
/// writes take a small, steady share of it.
constexpr double kMutateWritesPerSecond = 5.0;
/// Accounting check (CheckAccounting): no part of the client p50 may be
/// more negative than this share of it, nor the server's mean BOUND
/// latency longer than the client's mean round trip by more than this
/// share of it.
constexpr double kAccountingTolerance = 0.05;

enum Kind : int { kRead = 0, kWrite = 1, kCheckpoint = 2 };
constexpr size_t kKinds = 3;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end_to_end and per_layer metrics of BENCHMARK.json, in order.
constexpr MetricSpec kEndToEnd[] = {
    {"bound_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"client.bounds_per_s", "1/s"},
    {"client.bound_p90_us", "us"},
    {"client.bound_p99_us", "us"},
    {"event_loop.coalesce_wait_us_mean", "us"},
    {"event_loop.queue_wait_us_mean", "us"},
    {"event_loop.batch_size_mean", "count"},
    {"event_loop.overload_rejects", "count"},
    {"event_loop.self_us_p50", "us"},
    {"server.handle_us_p50", "us"},
    {"server.handle_us_p99", "us"},
    {"server.self_us_p50", "us"},
    {"server.bound_latency_us_mean", "us"},
    {"sharded.bound_us_p50", "us"},
    {"sharded.bound_us_p99", "us"},
    {"route.mask_ns_mean", "ns"},
    {"route.fanout_mean", "count"},
    {"sharded.multi_shard_frac", "ratio"},
    {"sharded.union_solvers_built", "count"},
    {"sharded.shard_solve_us_mean", "us"},
    {"bound_solver.us_p50", "us"},
    {"bound_solver.us_p99", "us"},
    {"bound_solver.avg_us_mean", "us"},
    {"bound_solver.other_us_mean", "us"},
    {"bound_solver.fast_path_frac", "ratio"},
    {"bound_solver.build_ms", "ms"},
    {"decompose.us_p50", "us"},
    {"decompose.cells_per_query", "count"},
    {"sat.calls_per_query", "count"},
    {"sat.cache_hit_ratio", "ratio"},
    {"lp.self_us_p50", "us"},
    {"lp.solves_per_query", "count"},
    {"lp.pivots_per_query", "count"},
    {"lp.pivots_per_solve", "count"},
    {"milp.nodes_per_query", "count"},
    {"delta.apply_us_mean", "us"},
    {"delta.replay_apply_us_mean", "us"},
    {"delta_log.fsync_us_mean", "us"},
    {"delta_log.checkpoint_ms", "ms"},
    {"write.p50_us", "us"},
    {"write.tail_us", "us"},
    {"write.acks_per_s", "1/s"},
    {"snapshot.load_ms", "ms"},
    {"sharded.build_ms", "ms"},
    {"partition.ms", "ms"},
    {"error_rate", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

/// Everything a run counts and reports.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> notes;  ///< failure descriptions (first few)
  LayerValues end_to_end;
  LayerValues layers;

  void Absorb(const LoadResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) {
      if (notes.size() < 8) notes.push_back(f);
    }
  }
  /// Counts one attempted operation, failed unless `ok`.
  void Check(bool ok, const std::string& note) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < 8) notes.push_back(note);
  }
  void Fail(const std::string& note) { Check(false, note); }
};

double Median(std::vector<double> v) { return Percentile(v, 50.0); }

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out.flush());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ------------------------------------------------------------ serving

/// serve_mutate's writer: RETIRE a write-region constraint, APPEND it
/// back (to the end of the global order), a CHECKPOINT every
/// kCheckpointEvery writes. It tracks the global order so every RETIRE
/// names the right index and every ack's epoch and size are known.
class WriteStream {
 public:
  /// Starts at the snapshot's epoch, which LOAD installs.
  explicit WriteStream(const Inputs& inputs)
      : inputs_(inputs), epoch_(inputs.snapshot.epoch) {
    for (size_t i = 0; i < inputs.pcs.size(); ++i) order_.push_back(i);
  }

  Op Next() {
    pcx::DeltaRecord rec;
    rec.epoch = ++epoch_;
    Op op;
    if (writes_ > 0 && writes_ % kCheckpointEvery == 0 && !checkpointed_) {
      checkpointed_ = true;
      rec.op = pcx::DeltaOp::kCheckpoint;
      op.line = "CHECKPOINT";
      op.kind = kCheckpoint;
    } else {
      checkpointed_ = false;
      ++writes_;
      const size_t id = inputs_.write_pcs[moved_ % inputs_.write_pcs.size()];
      if (!retired_) {
        const size_t index = static_cast<size_t>(
            std::find(order_.begin(), order_.end(), id) - order_.begin());
        order_.erase(order_.begin() + static_cast<long>(index));
        rec.op = pcx::DeltaOp::kRetire;
        rec.retire_index = index;
        op.line = "RETIRE " + std::to_string(index);
      } else {
        order_.push_back(id);
        rec.op = pcx::DeltaOp::kAppend;
        rec.pc = inputs_.pcs.at(id);
        op.line = "APPEND " + pcx::SerializePcBody(rec.pc);
        ++moved_;
      }
      retired_ = !retired_;
      op.kind = kWrite;
    }
    op.expect = "OK epoch=" + std::to_string(epoch_) +
                " pcs=" + std::to_string(order_.size()) + " ";
    op.prefix = true;
    records_.push_back(std::move(rec));
    return op;
  }

  const std::vector<pcx::DeltaRecord>& records() const { return records_; }
  pcx::PredicateConstraintSet Live() const {
    pcx::PredicateConstraintSet live;
    for (size_t id : order_) live.Add(inputs_.pcs.at(id));
    return live;
  }

 private:
  const Inputs& inputs_;
  uint64_t epoch_;
  std::vector<size_t> order_;  ///< global order, as ids into inputs_.pcs
  size_t writes_ = 0;
  size_t moved_ = 0;
  bool retired_ = false;
  bool checkpointed_ = false;
  std::vector<pcx::DeltaRecord> records_;
};

bool Scrape(Connection& conn, pcxbench::Scrape* metrics, std::string* stats) {
  std::string text;
  if (!conn.Metrics(&text)) return false;
  *metrics = ParseExposition(text);
  return conn.RoundTrip("STATS", stats) && stats->rfind("STATS ", 0) == 0;
}

void ReportLatency(const char* label, const Summary& s) {
  std::printf("  %-10s n=%zu p50=%.1fus p%g=%.1fus mean=%.1fus\n", label, s.n,
              s.p50, s.tail_percentile, s.tail, s.mean);
}

/// Prints a BOUND latency sample taken over `seconds` and fills the
/// end-to-end bound_p50_us and the per-layer client tails and rate.
/// Those are per-layer figures, not end-to-end ones: on a shared 4-vCPU
/// guest, host CPU steal stalls a few percent of requests for
/// milliseconds in some minutes and not in others, which moves the p90,
/// the p99 and the mean (hence a closed loop's rate) from run to run by
/// more than the largest regression bound the benchmark may set. The
/// median holds.
void ReportBounds(const std::vector<double>& us, double seconds,
                  Outcome* outcome) {
  const Summary p90 = Summarize(us, 90.0);
  const Summary full = Summarize(us);
  std::printf("  BOUND      n=%zu p50=%.1fus p%g=%.1fus p%g=%.1fus mean=%.1fus\n",
              full.n, full.p50, p90.tail_percentile, p90.tail,
              full.tail_percentile, full.tail, full.mean);
  outcome->end_to_end["bound_p50_us"] = full.p50;
  outcome->layers["client.bounds_per_s"] =
      seconds > 0.0 ? static_cast<double>(full.n) / seconds : 0.0;
  outcome->layers["client.bound_p90_us"] = p90.tail;
  outcome->layers["client.bound_p99_us"] = full.tail;
}

void RunServe(const Args& args, const Inputs& inputs, const fs::path& dir,
              Outcome* outcome) {
  const bool mutate = inputs.workload == Workload::kServeMutate;
  const std::string snapshot_path = (dir / "snapshot.pcxsnap").string();
  if (!pcx::WriteSnapshot(inputs.snapshot, snapshot_path).ok()) {
    outcome->Fail("cannot write the snapshot");
    return;
  }
  // --threads=1: a coalesced batch solves on its one pool worker
  // instead of fanning out, so the client, the loop and the (at most
  // two) batches in flight fit four cores. The pool keeps its default
  // width: its flag belongs to the thread transport's plumbing.
  std::vector<std::string> argv = {PCXBENCH_SERVE_BINARY, "--port=0",
                                   "--event-loop", "--threads=1"};
  if (mutate) argv.push_back("--log-dir=" + (dir / "log").string());
  ChildProcess server;
  std::string error, line;
  if (!server.Start(argv, (dir / "server.log").string(), &error) ||
      !server.ReadLine(&line, 30000) || line.rfind("PORT ", 0) != 0) {
    outcome->Fail("pcx_serve did not start: " + error + " " +
                  ReadFile((dir / "server.log").string()));
    return;
  }
  const uint16_t port = static_cast<uint16_t>(std::atoi(line.c_str() + 5));

  const size_t num_conns = 4;
  std::vector<Connection> conns(num_conns);
  for (Connection& c : conns) {
    if (!c.Open(port, &error)) {
      outcome->Fail("connect failed: " + error);
      return;
    }
  }
  Connection& control = conns[0];

  // Set-up: LOAD is the time until the server is ready to answer.
  const std::string load_ok =
      "OK epoch=" + std::to_string(inputs.snapshot.epoch) +
      " shards=" + std::to_string(inputs.snapshot.shards.size()) +
      " pcs=" + std::to_string(inputs.pcs.size()) + " ";
  std::vector<double> setup_s;
  auto load = [&] {
    for (int i = 0; i < kServeSetups; ++i) {
      std::string reply;
      const Clock::time_point t0 = Clock::now();
      const bool sent = control.RoundTrip("LOAD " + snapshot_path, &reply);
      setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
      const bool ok = sent && reply.rfind(load_ok, 0) == 0;
      outcome->Check(ok, "LOAD -> '" + reply + "'");
      if (!ok) return false;
    }
    return true;
  };
  if (!load()) return;

  // Reads cycle through the pool from one cursor, so their issue
  // order is the pool order.
  size_t cursor = 0;
  auto next_read = [&] {
    const Request& r = inputs.reads[cursor++ % inputs.reads.size()];
    Op op;
    op.line = r.line;
    op.expect = r.expected;
    op.kind = kRead;
    return op;
  };
  // STATS counters are per epoch, and serve_mutate's every write swaps
  // in a successor solver whose counters start at zero. So the writer
  // sends STATS just ahead of each write (in the same segment, answered
  // in order on its connection), and the counters of each ending epoch
  // are summed here.
  WriteStream writer(inputs);
  std::map<std::string, double> ended_epochs;
  std::vector<Stream> streams;
  for (size_t i = 0; i < num_conns; ++i) {
    Stream s;
    s.conn = &conns[i];
    if (mutate && i == num_conns - 1) {
      s.pace_s = 1.0 / kMutateWritesPerSecond;
      s.next = [&] {
        Op op = writer.Next();
        op.lead = "STATS";
        op.lead_expect = "STATS ";
        op.on_lead_reply = [&](const std::string& reply) {
          for (const auto& [key, value] : ParseStatsLine(reply)) {
            ended_epochs[key] += value;
          }
        };
        return op;
      };
    } else if (mutate) {
      s.depth = kMutatePipeline;
      s.next = next_read;
    } else {
      s.next = next_read;
    }
    streams.push_back(std::move(s));
  }

  outcome->Absorb(RunLoad(streams, kWarmupSeconds, kKinds));
  pcxbench::Scrape before, after;
  std::string stats_before, stats_after;
  std::map<std::string, double> ended_before;
  if (args.trace == 1) {
    ended_before = ended_epochs;
    if (!Scrape(control, &before, &stats_before)) {
      outcome->Fail("scrape before the traced phase failed");
    }
  }
  const LoadResult measured = RunLoad(streams, args.seconds, kKinds);
  outcome->Absorb(measured);
  if (args.trace == 1 && !Scrape(control, &after, &stats_after)) {
    outcome->Fail("scrape after the traced phase failed");
  }
  const std::map<std::string, double> ended_after = ended_epochs;
  // Peak memory up to here: the LOADs below would add a second solver
  // beside the measured phase's caches.
  const double rss_mb = server.PeakRssMb();
  if (rss_mb < 0.0) outcome->Fail("cannot read the server's peak memory");
  if (!load()) return;
  conns.clear();
  int status = 0;
  server.Stop(/*terminate=*/true, &status);

  const Summary reads = Summarize(measured.latency_us[kRead]);
  std::printf("%s seed=%llu trace=%d: %zu reads in %.2fs\n",
              WorkloadName(inputs.workload),
              static_cast<unsigned long long>(inputs.seed), args.trace,
              reads.n, measured.elapsed_s);
  ReportBounds(measured.latency_us[kRead], measured.elapsed_s, outcome);
  LayerValues& e = outcome->end_to_end;
  e["setup_s"] = Median(setup_s);
  e["peak_rss_mb"] = rss_mb;
  if (args.trace == 0) return;

  LayerValues& v = outcome->layers;
  const Summary writes = Summarize(measured.latency_us[kWrite]);
  const Summary checkpoints = Summarize(measured.latency_us[kCheckpoint]);
  if (mutate) {
    ReportLatency("write", writes);
    ReportLatency("checkpoint", checkpoints);
  }
  v["write.p50_us"] = writes.p50;
  v["write.tail_us"] = writes.tail;
  v["write.acks_per_s"] =
      static_cast<double>(writes.n + checkpoints.n) / measured.elapsed_s;
  v["delta_log.checkpoint_ms"] = checkpoints.mean / 1000.0;
  v["event_loop.coalesce_wait_us_mean"] =
      DeltaOfHistogram(before, after, "pcx_coalesce_wait_us").mean();
  v["event_loop.queue_wait_us_mean"] =
      DeltaOfHistogram(before, after, "pcx_queue_wait_us").mean();
  v["event_loop.batch_size_mean"] =
      DeltaOfHistogram(before, after, "pcx_coalesce_batch_size").mean();
  v["event_loop.overload_rejects"] =
      DeltaOfCounter(before, after, "pcx_overload_rejections_total");
  const HistogramDelta server_bound = DeltaOfHistogram(
      before, after, "pcx_request_latency_us", "verb=\"BOUND\"");
  v["server.bound_latency_us_mean"] = server_bound.mean();
  v["route.fanout_mean"] =
      DeltaOfHistogram(before, after, "pcx_route_fanout").mean();
  v["sharded.shard_solve_us_mean"] =
      DeltaOfHistogram(before, after, "pcx_shard_solve_latency_us").mean();
  v["delta.apply_us_mean"] =
      DeltaOfHistogram(before, after, "pcx_delta_apply_latency_us").mean();
  v["delta_log.fsync_us_mean"] =
      DeltaOfHistogram(before, after, "pcx_log_fsync_latency_us").mean();
  // Counter growth over the phase: the epochs that ended in it plus the
  // epoch open at its end, less the part of the first one before it.
  const auto stats0 = ParseStatsLine(stats_before);
  const auto stats1 = ParseStatsLine(stats_after);
  auto value = [](const std::map<std::string, double>& m, const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  auto stats_delta = [&](const char* key) {
    return value(ended_after, key) - value(ended_before, key) +
           value(stats1, key) - value(stats0, key);
  };
  const double queries = stats_delta("queries");
  v["sharded.multi_shard_frac"] =
      queries > 0.0 ? stats_delta("multi_shard") / queries : 0.0;
  v["sharded.union_solvers_built"] = stats_delta("union_solvers");

  if (!ReplayServe(inputs, snapshot_path, mutate ? &writer.records() : nullptr,
                   writer.Live(), &v, &error)) {
    outcome->Fail(error);
    return;
  }
  const LatencyAttribution a = AttributeLatency(
      reads.p50, v["server.handle_us_p50"], v["sharded.bound_us_p50"]);
  v["event_loop.self_us_p50"] = a.event_loop_self_us;
  v["server.self_us_p50"] = a.server_self_us;
  std::printf(
      "  attribution of the BOUND p50 %.1fus: event_loop.self %.1f + "
      "server.self %.1f + sharded.bound %.1f; server BOUND mean %.1fus over "
      "%.0f, client mean %.1fus over %zu (tolerance %.0f%%)\n",
      a.client_us, a.event_loop_self_us, a.server_self_us, a.sharded_us,
      server_bound.mean(), server_bound.count, reads.mean, reads.n,
      kAccountingTolerance * 100.0);
  const std::string unbalanced = CheckAccounting(
      a, reads.n, reads.mean, server_bound, kAccountingTolerance);
  if (!unbalanced.empty()) {
    outcome->Fail("accounting check failed: " + unbalanced);
  }
}

// ------------------------------------------------------------ solving

int RunSolveChild(const std::string& dir, double seconds) {
  const std::string pcs_path = dir + "/pcs.pcset";
  std::vector<pcx::AttrDomain> domains;
  std::ifstream domain_text(dir + "/domains.txt");
  for (std::string d; domain_text >> d;) {
    const auto parsed = pcx::ParseAttrDomain(d);
    if (!parsed.ok()) return 2;
    domains.push_back(*parsed);
  }
  std::vector<std::string> lines;
  std::ifstream query_text(dir + "/queries.txt");
  for (std::string l; std::getline(query_text, l);) lines.push_back(l);
  if (lines.size() <= kSolveWarmupQueries) return 2;

  // Set-up: parse the constraint set and construct the engine.
  std::vector<double> setup_s;
  bool setup_ok = true;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    auto pcs = pcx::ParsePcSet(ReadFile(pcs_path));
    if (!pcs.ok()) {
      setup_ok = false;
      return pcx::Engine();
    }
    pcx::Engine built = pcx::Engine::Local(*std::move(pcs), domains);
    setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
    return built;
  };
  pcx::Engine engine;
  for (int i = 0; i < kSolveSetups; ++i) engine = set_up();
  if (!setup_ok) return 2;
  auto parse = [&](const std::string& l) {
    return pcx::ParseBoundRequest(pcx::SplitWhitespace(l), engine.num_attrs());
  };
  const size_t limit = lines.size() - kSolveWarmupQueries;
  for (size_t i = limit; i < lines.size(); ++i) {
    const auto q = parse(lines[i]);
    if (q.ok()) static_cast<void>(engine.Bound(*q));
  }

  // Results are kept compact in memory touched before the measured
  // loop, and formatted only after it, so peak memory does not depend
  // on how many queries a run reached.
  struct Answer {
    double us = 0.0;
    pcx::StatusOr<pcx::ResultRange> range = pcx::ResultRange{};
  };
  std::vector<Answer> answers(limit);
  size_t done = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point next_setup = start + kSolveSetupInterval;
  for (; done < limit && Clock::now() < stop; ++done) {
    if (Clock::now() >= next_setup) {
      for (int i = 0; i < kSolveSetupBurst; ++i) static_cast<void>(set_up());
      next_setup += kSolveSetupInterval;
    }
    const auto q = parse(lines[done]);
    if (!q.ok()) {
      answers[done].range = q.status();
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    auto range = engine.Bound(*q);
    answers[done] = {MicrosBetween(t0, Clock::now()), std::move(range)};
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!setup_ok) return 2;

  std::ofstream out(dir + "/results.txt", std::ios::binary | std::ios::trunc);
  out << "ELAPSED " << pcx::FormatNumber(elapsed) << "\nSETUP";
  for (double s : setup_s) out << " " << pcx::FormatNumber(s);
  out << "\n";
  for (size_t i = 0; i < done; ++i) {
    const Answer& a = answers[i];
    out << pcx::FormatNumber(a.us) << " "
        << (a.range.ok() ? RangeReply(*a.range)
                         : "ERR " + a.range.status().ToString())
        << "\n";
  }
  return out.flush() ? 0 : 2;
}

void RunSolve(const Args& args, const std::string& self, Inputs& inputs,
              const fs::path& dir, Outcome* outcome) {
  std::string domains, queries;
  for (pcx::AttrDomain d : inputs.domains) {
    domains += std::string(pcx::AttrDomainName(d)) + "\n";
  }
  for (const Request& r : inputs.reads) queries += r.line + "\n";
  if (!WriteFile((dir / "pcs.pcset").string(), pcx::SerializePcSet(inputs.pcs)) ||
      !WriteFile((dir / "domains.txt").string(), domains) ||
      !WriteFile((dir / "queries.txt").string(), queries)) {
    outcome->Fail("cannot write the solver inputs");
    return;
  }
  ChildProcess child;
  std::string error;
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%g", args.seconds);
  if (!child.Start({self, "--solve-child", dir.string(), seconds},
                   (dir / "solver.log").string(), &error)) {
    outcome->Fail("solver child did not start: " + error);
    return;
  }
  int status = 0;
  const double rss_mb = child.Stop(/*terminate=*/false, &status);
  if (rss_mb < 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    outcome->Fail("solver child failed: " +
                  ReadFile((dir / "solver.log").string()));
    return;
  }

  std::istringstream results(ReadFile((dir / "results.txt").string()));
  std::string line, word;
  double elapsed = 0.0;
  std::vector<double> setup_s, us;
  std::vector<std::string> replies;
  while (std::getline(results, line)) {
    std::istringstream fields(line);
    fields >> word;
    if (word == "ELAPSED") {
      fields >> elapsed;
    } else if (word == "SETUP") {
      for (double s; fields >> s;) setup_s.push_back(s);
    } else {
      us.push_back(std::strtod(word.c_str(), nullptr));
      replies.push_back(line.substr(word.size() + 1));
    }
  }
  if (!FillExpected(inputs, replies.size(), 4)) {
    outcome->Fail("the reference solver failed");
  }
  for (size_t i = 0; i < replies.size(); ++i) {
    outcome->Check(replies[i] == inputs.reads[i].expected,
                   inputs.reads[i].line + " -> '" + replies[i] + "' want '" +
                       inputs.reads[i].expected + "'");
  }
  if (replies.size() + kSolveWarmupQueries >= inputs.reads.size()) {
    std::printf("  note: the query pool ran out after %.2fs\n", elapsed);
  }

  std::printf("%s seed=%llu trace=%d: %zu queries in %.2fs\n",
              WorkloadName(inputs.workload),
              static_cast<unsigned long long>(inputs.seed), args.trace,
              us.size(), elapsed);
  ReportBounds(us, elapsed, outcome);
  LayerValues& e = outcome->end_to_end;
  e["setup_s"] = Median(setup_s);
  e["peak_rss_mb"] = rss_mb;
  if (args.trace == 0) return;

  if (!ReplaySolve(inputs, &outcome->layers, &error)) {
    outcome->Fail(error);
    return;
  }
  std::printf("  decomposition replay matches the solver's sat_calls and "
              "cells on every replayed query\n");
}

int Main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--solve-child") {
    return RunSolveChild(argv[2], std::strtod(argv[3], nullptr));
  }
  Args args;
  Workload workload;
  if (!ParseArgs(argc, argv, &args) ||
      !ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr,
                 "usage: pcxbench --workload "
                 "serve_interactive|solve_overlap|serve_mutate --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  // Scratch files live beside the binary, inside the build tree.
  const fs::path self = fs::absolute(argv[0]);
  const fs::path dir = self.parent_path() / "runs" /
                       (args.workload + "-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 2;
  }

  Inputs inputs = MakeInputs(workload, args.seed);
  Outcome outcome;
  if (workload == Workload::kSolveOverlap) {
    RunSolve(args, self.string(), inputs, dir, &outcome);
  } else {
    RunServe(args, inputs, dir, &outcome);
  }
  fs::remove_all(dir, ec);

  outcome.layers["error_rate"] =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    for (const MetricSpec& m : kEndToEnd) {
      metrics.push_back({m.name, outcome.end_to_end[m.name], m.unit});
    }
  } else {
    for (const MetricSpec& m : kPerLayer) {
      metrics.push_back({m.name, outcome.layers[m.name], m.unit});
    }
  }
  for (const std::string& note : outcome.notes) {
    std::fprintf(stderr, "FAILED: %s\n", note.c_str());
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("%s\n", ResultJson(correct, outcome.attempted, outcome.failed,
                                 metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pcxbench

int main(int argc, char** argv) { return pcxbench::Main(argc, argv); }
