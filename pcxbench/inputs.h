// Workload inputs of the pcx benchmark: everything the program under
// test receives (the snapshot file, the constraint set, the request
// lines) is generated here from the workload seed, together with the
// unsharded reference replies every answer is checked against.
#ifndef PCXBENCH_INPUTS_H_
#define PCXBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pc/pc_set.h"
#include "pc/query.h"
#include "predicate/predicate.h"
#include "serve/snapshot.h"

namespace pcxbench {

enum class Workload { kServeInteractive, kSolveOverlap, kServeMutate };

/// Parses a workload name; false for an unknown one.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Attribute layout of the Intel sensor table the workloads query.
inline constexpr size_t kDeviceAttr = 0;
inline constexpr size_t kTimeAttr = 1;
inline constexpr size_t kLightAttr = 2;

/// Fixed workload parameters (also summarised in BENCHMARK.json). The
/// data and the constraint sets are drawn from a fixed seed so that
/// runs compare like with like; the workload seed draws the query and
/// write streams.
inline constexpr uint64_t kDataSeed = 7;
inline constexpr size_t kIntelDevices = 54;
inline constexpr size_t kIntelEpochs = 400;
inline constexpr double kMissingFraction = 0.4;  ///< top `light` values
inline constexpr size_t kCorrPcs = 2000;
inline constexpr size_t kServeShards = 8;
inline constexpr size_t kRandPcs = 48;
/// Distinct BOUND lines a serving workload cycles through.
inline constexpr size_t kServePoolSize = 4000;
/// Distinct solve_overlap queries available to one run (never reused);
/// a run that exhausts them stops early and says so.
inline constexpr size_t kSolvePoolSize = 100000;
/// serve_mutate: constraints whose device range starts at or above
/// this value form the reserved write region no read touches.
inline constexpr double kWriteRegionDevice = 47.0;

/// One request line with the reply the unsharded reference solver gives.
struct Request {
  pcx::AggQuery query;
  std::string line;      ///< "BOUND <AGG> <attr> {box}" (no newline)
  std::string expected;  ///< "RANGE lo=..." (no newline); filled lazily
                         ///< for solve_overlap
};

struct Inputs {
  Workload workload = Workload::kServeInteractive;
  uint64_t seed = 0;
  pcx::PredicateConstraintSet pcs;
  std::vector<pcx::AttrDomain> domains;
  /// Range-partitioned snapshot of `pcs` (serve workloads only).
  pcx::Snapshot snapshot;
  /// The read stream, in issue order (serve workloads cycle through it).
  std::vector<Request> reads;
  /// serve_mutate: global indices (in `pcs`) of the write-region
  /// constraints the write stream retires and re-appends.
  std::vector<size_t> write_pcs;
};

/// Builds the inputs of `workload` from `seed`. Serve workloads get
/// their reference replies here; solve_overlap's are computed after
/// the measured phase for the queries it reached (FillExpected).
Inputs MakeInputs(Workload workload, uint64_t seed);

/// Formats the wire request of `query`.
std::string BoundLine(const pcx::AggQuery& query);

/// The reply line (without newline) a server gives for `range`.
std::string RangeReply(const pcx::ResultRange& range);

/// Computes `expected` for reads[0, count) with the unsharded
/// reference solver (fanned over `threads` workers; bit-identical to a
/// sequential loop). Returns false when the reference itself fails.
bool FillExpected(Inputs& inputs, size_t count, size_t threads);

}  // namespace pcxbench

#endif  // PCXBENCH_INPUTS_H_
