// Incremental delta apply vs full reload on the Fig. 8 serving
// workload: a 2000-constraint Corr-PC set at 8 shards, mutated by
// append batches of 1 / 16 / 256 records (the delta-log shapes a
// primary journals and a replica tails). Each append revises an
// existing grid cell — a clone of a live constraint, the natural
// live-update shape for a tiling constraint set, since the Corr-PC
// grid covers the whole predicate space and any new constraint lands
// in some cell. ApplyDeltas routes each append by a hull-gated overlap
// scan and maintains the overlap-component structure in a union-find,
// so its cost is O(delta · n) box checks. The full reload it replaces
// repartitions from scratch: a whole-set sort-and-sweep overlap scan
// before the first shard exists.
//
// Every batch is self-checked: the incremental solver must answer a
// probe workload bit-identically to the from-scratch rebuild before
// its timing is reported.
//
// Set PCX_BENCH_JSON=<path> to emit BENCH_pr7.json.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "serve/delta_log.h"
#include "serve/sharded_solver.h"
#include "workload/datasets.h"
#include "workload/missing.h"
#include "workload/pc_gen.h"
#include "workload/query_gen.h"

namespace pcx {
namespace {

int Run() {
  workload::IntelWirelessOptions opts;
  opts.num_devices = 54;
  opts.num_epochs = 400;
  const Table full = workload::MakeIntelWireless(opts);
  const size_t device = 0, time_attr = 1, light = 2;
  auto split = workload::SplitTopValueCorrelated(full, light, 0.4);
  const auto domains = DomainsFromSchema(full.schema());
  const auto pcs =
      workload::MakeCorrPCs(split.missing, {device, time_attr}, light, 2000);

  workload::QueryGenOptions qopts;
  qopts.count = 64;
  qopts.seed = 71;
  qopts.width_fraction = 0.05;
  const auto queries = workload::MakeRandomRangeQueries(
      full, {device, time_attr}, AggFunc::kSum, light, qopts);

  ShardedBoundSolver::Options sopts;
  sopts.partition = {8, PartitionStrategy::kAttributeRange};
  sopts.num_threads = 1;
  // The serving configuration (BoundServer sets this too).
  sopts.solver.persistent_sat_cache = true;
  const auto base =
      std::make_shared<const ShardedBoundSolver>(pcs, domains, sopts);

  auto json = bench::JsonEmitter::FromEnv("delta_apply");
  std::printf("=== Incremental delta apply: %zu PCs, %zu shards ===\n",
              pcs.size(), base->num_shards());
  std::printf("%-8s %-16s %-12s %-10s\n", "delta", "incremental-ms",
              "reload-ms", "speedup");

  for (const size_t delta : {size_t{1}, size_t{16}, size_t{256}}) {
    // Revise scattered cells: clone live constraints sampled across
    // the grid (stride 37 spreads them over every shard at delta=256).
    std::vector<DeltaRecord> records;
    PredicateConstraintSet flat = pcs;
    for (size_t i = 0; i < delta; ++i) {
      DeltaRecord rec;
      rec.epoch = base->epoch() + 1 + i;
      rec.op = DeltaOp::kAppend;
      rec.pc = pcs.at((i * 37) % pcs.size());
      flat.Add(rec.pc);
      records.push_back(std::move(rec));
    }

    bench::Stopwatch incremental_sw;
    const auto next = base->ApplyDeltas(records);
    const double incremental_ms = incremental_sw.ElapsedMs();
    if (!next.ok()) {
      std::fprintf(stderr, "ApplyDeltas failed: %s\n",
                   next.status().ToString().c_str());
      return 1;
    }

    bench::Stopwatch reload_sw;
    const ShardedBoundSolver rebuilt(flat, domains, sopts);
    const double reload_ms = reload_sw.ElapsedMs();

    // Bit-identity self-check: a fast wrong answer is worthless.
    const auto got = (*next)->BoundBatch(queries);
    const auto want = rebuilt.BoundBatch(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      const bool same =
          got[i].ok() == want[i].ok() &&
          (!got[i].ok() ||
           (got[i]->lo == want[i]->lo && got[i]->hi == want[i]->hi &&
            got[i]->defined == want[i]->defined &&
            got[i]->empty_instance_possible ==
                want[i]->empty_instance_possible));
      if (!same) {
        std::fprintf(stderr,
                     "BIT-IDENTITY VIOLATION at delta=%zu query %zu\n",
                     delta, i);
        return 1;
      }
    }

    std::printf("%-8zu %-16.2f %-12.2f %-10.1fx\n", delta, incremental_ms,
                reload_ms, reload_ms / incremental_ms);
    json.Add()
        .Str("section", "delta_apply")
        .Num("num_pcs", static_cast<double>(pcs.size()))
        .Num("shards", 8)
        .Num("delta", static_cast<double>(delta))
        .Num("incremental_ms", incremental_ms)
        .Num("reload_ms", reload_ms)
        .Num("speedup", reload_ms / incremental_ms);
  }
  return 0;
}

}  // namespace
}  // namespace pcx

int main() { return pcx::Run(); }
