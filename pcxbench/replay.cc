#include "replay.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "client.h"
#include "common/metrics.h"
#include "ledger.h"
#include "pc/bound_solver.h"
#include "pc/cell_decomposition.h"
#include "serve/partitioner.h"
#include "serve/server.h"
#include "serve/sharded_solver.h"
#include "serve/snapshot.h"

namespace pcxbench {
namespace {

/// Repeats of each set-up step whose median is reported.
constexpr int kSetupRepeats = 5;
/// solve_overlap queries replayed (a fixed prefix, so the counters
/// repeat exactly for a seed).
constexpr size_t kSolveReplayQueries = 1000;
/// Delta records replayed through ApplyDeltas (a prefix of the run).
constexpr size_t kMaxReplayedWrites = 200;

template <typename Fn>
double MedianMs(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
  }
  return Percentile(ms, 50.0);
}

/// The solver configuration pcx_serve runs with under the benchmark's
/// flags (--threads=1; its default persistent SAT cache).
pcx::ShardedBoundSolver::Options ServeSolverOptions() {
  pcx::ShardedBoundSolver::Options options;
  options.num_threads = 1;
  options.solver.persistent_sat_cache = true;
  return options;
}

double Mean(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

// Times PcBoundSolver::BoundWithStats over reads[0, count), filling the
// bound_solver.* and lp/milp figures; returns each query's SolveStats.
std::vector<pcx::PcBoundSolver::SolveStats> TimeBoundSolver(
    const pcx::PcBoundSolver& solver, const std::vector<Request>& reads,
    size_t count, LayerValues* out) {
  std::vector<pcx::PcBoundSolver::SolveStats> per_query;
  std::vector<double> us, avg_us, other_us;
  pcx::PcBoundSolver::SolveStats total;
  size_t fast = 0;
  for (size_t i = 0; i < count; ++i) {
    pcx::PcBoundSolver::SolveStats stats;
    const Clock::time_point t0 = Clock::now();
    static_cast<void>(solver.BoundWithStats(reads[i].query, stats));
    const double elapsed = MicrosBetween(t0, Clock::now());
    us.push_back(elapsed);
    (reads[i].query.agg == pcx::AggFunc::kAvg ? avg_us : other_us)
        .push_back(elapsed);
    fast += stats.used_disjoint_fast_path ? 1 : 0;
    total += stats;
    per_query.push_back(stats);
  }
  const double n = static_cast<double>(std::max<size_t>(count, 1));
  const Summary s = Summarize(std::move(us));
  (*out)["bound_solver.us_p50"] = s.p50;
  (*out)["bound_solver.us_p99"] = s.tail;
  (*out)["bound_solver.avg_us_mean"] = Mean(avg_us);
  (*out)["bound_solver.other_us_mean"] = Mean(other_us);
  (*out)["bound_solver.fast_path_frac"] = static_cast<double>(fast) / n;
  (*out)["lp.solves_per_query"] = static_cast<double>(total.lp_solves) / n;
  (*out)["lp.pivots_per_query"] = static_cast<double>(total.lp_pivots) / n;
  (*out)["lp.pivots_per_solve"] =
      total.lp_solves > 0 ? static_cast<double>(total.lp_pivots) /
                                static_cast<double>(total.lp_solves)
                          : 0.0;
  (*out)["milp.nodes_per_query"] = static_cast<double>(total.milp_nodes) / n;
  return per_query;
}

// ApplyDeltas on the records the write stream sent, one at a time as
// the server applies them.
bool ReplayDeltas(const Inputs& inputs,
                  const std::vector<pcx::DeltaRecord>& writes,
                  LayerValues* out, std::string* error) {
  pcx::MetricsRegistry registry;
  pcx::ShardedBoundSolver::Options options = ServeSolverOptions();
  options.metrics = &registry;
  std::shared_ptr<const pcx::ShardedBoundSolver> current =
      std::make_shared<const pcx::ShardedBoundSolver>(inputs.snapshot, options);
  std::vector<double> apply_us;
  const size_t count = std::min(writes.size(), kMaxReplayedWrites);
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto next =
        current->ApplyDeltas(std::span<const pcx::DeltaRecord>(&writes[i], 1));
    apply_us.push_back(MicrosBetween(t0, Clock::now()));
    if (!next.ok()) {
      *error = "ApplyDeltas replay failed: " + next.status().ToString();
      return false;
    }
    current = *std::move(next);
  }
  (*out)["delta.replay_apply_us_mean"] = Mean(apply_us);
  return true;
}

}  // namespace

bool ReplayServe(const Inputs& inputs, const std::string& snapshot_path,
                 const std::vector<pcx::DeltaRecord>* writes,
                 const pcx::PredicateConstraintSet& live, LayerValues* out,
                 std::string* error) {
  LayerValues& v = *out;
  // serve/snapshot + serve/sharded_solver construction: LOAD's parts.
  v["snapshot.load_ms"] = MedianMs(kSetupRepeats, [&] {
    if (!pcx::LoadSnapshot(snapshot_path).ok()) *error = "LoadSnapshot failed";
  });
  if (!error->empty()) return false;
  v["sharded.build_ms"] = MedianMs(kSetupRepeats, [&] {
    pcx::MetricsRegistry registry;
    pcx::ShardedBoundSolver::Options options = ServeSolverOptions();
    options.metrics = &registry;
    const pcx::ShardedBoundSolver solver(inputs.snapshot, options);
  });
  // serve/partitioner on the live set: what CHECKPOINT re-runs.
  v["partition.ms"] = MedianMs(kSetupRepeats, [&] {
    const pcx::Partition p = pcx::PartitionPcSet(
        live, inputs.domains,
        {kServeShards, pcx::PartitionStrategy::kAttributeRange});
  });

  // serve/server: HandleLine on the same lines, after one warm pass
  // (the served process had its warm-up too).
  pcx::BoundServer::Options server_options;
  server_options.solver = ServeSolverOptions();
  pcx::BoundServer server(server_options);
  if (!server.LoadSnapshotFile(snapshot_path).ok()) {
    *error = "in-process LOAD failed";
    return false;
  }
  const size_t count = inputs.reads.size();
  std::vector<double> handle_us;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < count; ++i) {
      std::ostringstream reply;
      const Clock::time_point t0 = Clock::now();
      server.HandleLine(inputs.reads[i].line, reply);
      const double elapsed = MicrosBetween(t0, Clock::now());
      if (pass == 0) continue;
      handle_us.push_back(elapsed);
      if (reply.str() != inputs.reads[i].expected + "\n") {
        *error = "HandleLine replay differs on " + inputs.reads[i].line;
        return false;
      }
    }
  }
  const Summary handle = Summarize(handle_us);
  v["server.handle_us_p50"] = handle.p50;
  v["server.handle_us_p99"] = handle.tail;

  // serve/sharded_solver + route/: the served solver, already warm.
  const std::shared_ptr<const pcx::ShardedBoundSolver> sharded =
      server.solver();
  std::vector<double> sharded_us;
  double mask_ns = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto range = sharded->Bound(inputs.reads[i].query);
    sharded_us.push_back(MicrosBetween(t0, Clock::now()));
    if (!range.ok() || RangeReply(*range) != inputs.reads[i].expected) {
      *error = "ShardedBoundSolver::Bound replay differs on " +
               inputs.reads[i].line;
      return false;
    }
    const Clock::time_point m0 = Clock::now();
    static_cast<void>(sharded->RouteMask(inputs.reads[i].query));
    mask_ns += MicrosBetween(m0, Clock::now()) * 1000.0;
  }
  const Summary sh = Summarize(sharded_us);
  v["sharded.bound_us_p50"] = sh.p50;
  v["sharded.bound_us_p99"] = sh.tail;
  v["route.mask_ns_mean"] = mask_ns / static_cast<double>(count);

  // pc/bound_solver: the unsharded solver with the serving options.
  const pcx::PcBoundSolver solver(inputs.pcs, inputs.domains,
                                  ServeSolverOptions().solver);
  TimeBoundSolver(solver, inputs.reads, count, out);
  v["bound_solver.build_ms"] = MedianMs(kSetupRepeats, [&] {
    const pcx::PcBoundSolver built(inputs.pcs, inputs.domains,
                                   ServeSolverOptions().solver);
  });

  if (writes != nullptr && !ReplayDeltas(inputs, *writes, out, error)) {
    return false;
  }
  return true;
}

bool ReplaySolve(const Inputs& inputs, LayerValues* out, std::string* error) {
  LayerValues& v = *out;
  const size_t count = std::min(kSolveReplayQueries, inputs.reads.size());
  // Engine::Local's solver: PcBoundSolver with default options.
  const pcx::PcBoundSolver solver(inputs.pcs, inputs.domains);
  v["bound_solver.build_ms"] = MedianMs(25, [&] {
    const pcx::PcBoundSolver built(inputs.pcs, inputs.domains);
  });
  const std::vector<pcx::PcBoundSolver::SolveStats> per_query =
      TimeBoundSolver(solver, inputs.reads, count, out);

  // pc/cell_decomposition + predicate/sat, called as BuildCells calls
  // them: the solver's decomposition options and domains, pruned by its
  // route index. MIN runs on the value-negated sibling, whose predicate
  // boxes (all the decomposition reads) are the same.
  const pcx::PcBoundSolver::Options& options = solver.options();
  std::vector<double> decompose_us;
  size_t cells = 0, sat_calls = 0, sat_hits = 0;
  for (size_t i = 0; i < count; ++i) {
    const pcx::AggQuery& query = inputs.reads[i].query;
    const Clock::time_point t0 = Clock::now();
    std::vector<uint32_t> relevant;
    const bool pruned =
        solver.route_index() != nullptr && query.where.has_value();
    if (pruned) {
      solver.route_index()->CollectIntersecting(query.where->box(),
                                                &relevant);
    }
    const pcx::DecompositionResult d = pcx::DecomposeCells(
        solver.constraints(), query.where, options.decomposition,
        inputs.domains, pruned ? &relevant : nullptr);
    decompose_us.push_back(MicrosBetween(t0, Clock::now()));
    if (d.sat_calls != per_query[i].sat_calls ||
        d.cells.size() != per_query[i].num_cells) {
      *error = "decomposition replay disagrees with the solver on " +
               inputs.reads[i].line + ": sat_calls " +
               std::to_string(d.sat_calls) + " vs " +
               std::to_string(per_query[i].sat_calls) + ", cells " +
               std::to_string(d.cells.size()) + " vs " +
               std::to_string(per_query[i].num_cells);
      return false;
    }
    cells += d.cells.size();
    sat_calls += d.sat_calls;
    sat_hits += d.sat_cache_hits;
  }
  const double n = static_cast<double>(std::max<size_t>(count, 1));
  const Summary dec = Summarize(decompose_us);
  v["decompose.us_p50"] = dec.p50;
  v["decompose.cells_per_query"] = static_cast<double>(cells) / n;
  v["sat.calls_per_query"] = static_cast<double>(sat_calls) / n;
  v["sat.cache_hit_ratio"] =
      sat_calls > 0 ? static_cast<double>(sat_hits) /
                          static_cast<double>(sat_calls)
                    : 0.0;
  v["lp.self_us_p50"] = v["bound_solver.us_p50"] - dec.p50;
  return true;
}

}  // namespace pcxbench
