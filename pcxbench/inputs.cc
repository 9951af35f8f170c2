#include "inputs.h"

#include <algorithm>
#include <sstream>

#include "common/random.h"
#include "pc/bound_solver.h"
#include "pc/serialization.h"
#include "serve/partitioner.h"
#include "serve/server.h"
#include "workload/datasets.h"
#include "workload/missing.h"
#include "workload/pc_gen.h"
#include "workload/query_gen.h"

namespace pcxbench {
namespace {

using pcx::AggFunc;
using pcx::AggQuery;

struct Data {
  pcx::Table full;
  pcx::Table missing;
  std::vector<pcx::AttrDomain> domains;
};

Data MakeData() {
  pcx::workload::IntelWirelessOptions opts;
  opts.num_devices = kIntelDevices;
  opts.num_epochs = kIntelEpochs;
  opts.seed = kDataSeed;
  Data data{pcx::workload::MakeIntelWireless(opts), {}, {}};
  data.missing = pcx::workload::SplitTopValueCorrelated(
                     data.full, kLightAttr, kMissingFraction)
                     .missing;
  data.domains = pcx::DomainsFromSchema(data.full.schema());
  return data;
}

std::vector<AggQuery> Queries(const pcx::Table& data,
                              const std::vector<size_t>& attrs, AggFunc agg,
                              size_t count, double width, uint64_t seed) {
  pcx::workload::QueryGenOptions qopts;
  qopts.count = count;
  qopts.width_fraction = width;
  qopts.seed = seed;
  return pcx::workload::MakeRandomRangeQueries(data, attrs, agg, kLightAttr,
                                               qopts);
}

void AddReads(Inputs& inputs, std::vector<AggQuery> queries) {
  inputs.reads.reserve(inputs.reads.size() + queries.size());
  for (AggQuery& q : queries) {
    Request r;
    r.line = BoundLine(q);
    r.query = std::move(q);
    inputs.reads.push_back(std::move(r));
  }
}

// Selective SUM/COUNT boxes over (device, time), 1 in 10 replaced by a
// time-only range that spans several shards. `keep` filters boxes.
template <typename Keep>
std::vector<AggQuery> ServeMix(const pcx::Table& full, uint64_t seed,
                               size_t count, bool with_time_only,
                               Keep keep) {
  std::vector<AggQuery> out;
  pcx::Rng rng(seed ^ 0x5eedULL);
  uint64_t batch_seed = seed * 1000 + 1;
  while (out.size() < count) {
    const size_t n = count;  // generate generously, keep what passes
    auto sums = Queries(full, {kDeviceAttr, kTimeAttr}, AggFunc::kSum, n,
                        0.05, batch_seed++);
    auto counts = Queries(full, {kDeviceAttr, kTimeAttr}, AggFunc::kCount, n,
                          0.05, batch_seed++);
    auto spans = Queries(full, {kTimeAttr}, AggFunc::kSum, n, 0.0,
                         batch_seed++);
    for (size_t i = 0; i < n && out.size() < count; ++i) {
      const size_t slot = out.size();
      if (with_time_only && slot % 10 == 9) {
        if (i % 2 == 1) spans[i].agg = AggFunc::kCount;
        out.push_back(std::move(spans[i]));
        continue;
      }
      AggQuery& q = rng.Uniform() < 0.5 ? sums[i] : counts[i];
      if (keep(q)) out.push_back(std::move(q));
    }
  }
  return out;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kServeInteractive, Workload::kSolveOverlap,
                     Workload::kServeMutate}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServeInteractive:
      return "serve_interactive";
    case Workload::kSolveOverlap:
      return "solve_overlap";
    case Workload::kServeMutate:
      return "serve_mutate";
  }
  return "?";
}

std::string BoundLine(const AggQuery& query) {
  std::string line = std::string("BOUND ") + pcx::AggFuncToString(query.agg) +
                     " " + std::to_string(query.attr);
  if (query.where.has_value()) {
    line += " " + pcx::SerializeBox(query.where->box());
  }
  return line;
}

std::string RangeReply(const pcx::ResultRange& range) {
  std::ostringstream out;
  pcx::PrintResultRange(out, "RANGE ", range);
  std::string text = out.str();
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

Inputs MakeInputs(Workload workload, uint64_t seed) {
  Inputs inputs;
  inputs.workload = workload;
  inputs.seed = seed;
  const Data data = MakeData();
  inputs.domains = data.domains;

  if (workload == Workload::kSolveOverlap) {
    pcx::Rng rng(kDataSeed);
    inputs.pcs = pcx::workload::MakeRandPCs(
        data.missing, {kDeviceAttr, kTimeAttr}, kLightAttr, kRandPcs, &rng);
    // Distinct queries, COUNT/SUM/MIN/MAX/AVG in turn; every
    // aggregate draws its own boxes so no region repeats.
    const AggFunc aggs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                            AggFunc::kMax, AggFunc::kAvg};
    const size_t per_agg = kSolvePoolSize / 5;
    std::vector<std::vector<AggQuery>> by_agg;
    for (size_t a = 0; a < 5; ++a) {
      by_agg.push_back(Queries(data.full, {kDeviceAttr, kTimeAttr}, aggs[a],
                               per_agg, 0.3, seed * 1000 + 101 + a));
    }
    std::vector<AggQuery> mix;
    mix.reserve(kSolvePoolSize);
    for (size_t i = 0; i < per_agg; ++i) {
      for (size_t a = 0; a < 5; ++a) mix.push_back(std::move(by_agg[a][i]));
    }
    AddReads(inputs, std::move(mix));
    return inputs;
  }

  inputs.pcs = pcx::workload::MakeCorrPCs(
      data.missing, {kDeviceAttr, kTimeAttr}, kLightAttr, kCorrPcs);
  const pcx::Partition partition = pcx::PartitionPcSet(
      inputs.pcs, inputs.domains,
      {kServeShards, pcx::PartitionStrategy::kAttributeRange});
  inputs.snapshot =
      pcx::MakeSnapshot(inputs.pcs, inputs.domains, partition, /*epoch=*/1);

  if (workload == Workload::kServeInteractive) {
    AddReads(inputs, ServeMix(data.full, seed, kServePoolSize,
                              /*with_time_only=*/true,
                              [](const AggQuery&) { return true; }));
  } else {
    // The write region: constraints lying wholly at device >=
    // kWriteRegionDevice. Reads must miss every one of them, so moving
    // one to the end of the set never changes a read's answer.
    std::vector<pcx::Box> region;
    for (size_t i = 0; i < inputs.pcs.size(); ++i) {
      const pcx::Box& box = inputs.pcs.at(i).predicate().box();
      if (box.dim(kDeviceAttr).lo >= kWriteRegionDevice) {
        inputs.write_pcs.push_back(i);
        region.push_back(box);
      }
    }
    const auto& domains = inputs.domains;
    AddReads(inputs,
             ServeMix(data.full, seed, kServePoolSize,
                      /*with_time_only=*/false, [&](const AggQuery& q) {
                        return q.where.has_value() &&
                               std::all_of(region.begin(), region.end(),
                                           [&](const pcx::Box& b) {
                                             return q.where->box()
                                                 .IntersectionEmpty(b,
                                                                    domains);
                                           });
                      }));
  }
  FillExpected(inputs, inputs.reads.size(), 4);
  return inputs;
}

bool FillExpected(Inputs& inputs, size_t count, size_t threads) {
  count = std::min(count, inputs.reads.size());
  const pcx::PcBoundSolver reference(inputs.pcs, inputs.domains);
  std::vector<AggQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) queries.push_back(inputs.reads[i].query);
  const auto results = reference.BoundBatch(queries, threads);
  bool ok = true;
  for (size_t i = 0; i < count; ++i) {
    if (results[i].ok()) {
      inputs.reads[i].expected = RangeReply(*results[i]);
    } else {
      inputs.reads[i].expected = "ERR " + results[i].status().ToString();
      ok = false;
    }
  }
  return ok;
}

}  // namespace pcxbench
