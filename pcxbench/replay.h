// In-process replays of the traced run: the workload's exact inputs
// timed through the public entry points of each module, from the
// benchmark's own code (the program itself is not instrumented).
#ifndef PCXBENCH_REPLAY_H_
#define PCXBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "serve/delta_log.h"

namespace pcxbench {

/// Per-layer metric values by name (units are fixed by the caller's
/// metric table).
using LayerValues = std::map<std::string, double>;

/// serve/snapshot, serve/partitioner, serve/server, serve/sharded_solver
/// + route/ and pc/bound_solver on a serving workload's reads. With
/// `writes` (serve_mutate's records in ack order), also
/// ShardedBoundSolver::ApplyDeltas on them, one record at a time as the
/// server applies them. `live` is the constraint set after the run's
/// writes (what a CHECKPOINT re-partitions). Fails (with `*error`) when
/// a replayed reply differs from the reference.
bool ReplayServe(const Inputs& inputs, const std::string& snapshot_path,
                 const std::vector<pcx::DeltaRecord>* writes,
                 const pcx::PredicateConstraintSet& live, LayerValues* out,
                 std::string* error);

/// pc/bound_solver, pc/cell_decomposition + predicate/sat and the LP
/// counters on a fixed prefix of solve_overlap's queries. Fails when
/// the decomposition replay disagrees with the solver's own counters.
bool ReplaySolve(const Inputs& inputs, LayerValues* out, std::string* error);

}  // namespace pcxbench

#endif  // PCXBENCH_REPLAY_H_
