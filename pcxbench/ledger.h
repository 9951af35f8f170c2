// The arithmetic of the pcx benchmark's ledger, kept free of I/O so it
// is unit-tested on its own (ledger_test.cc): percentile selection,
// Prometheus-exposition deltas, STATS parsing, the self-time
// subtraction and the accounting check, and the result line.
#ifndef PCXBENCH_LEDGER_H_
#define PCXBENCH_LEDGER_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pcxbench {

/// Samples needed beyond a reported tail percentile.
inline constexpr size_t kTailSamplesBeyond = 10;

/// The highest percentile of {99, 95, 90, 75, 50} that is at most
/// `cap` and has at least kTailSamplesBeyond of `n` samples beyond it
/// (50 when none has).
double TailPercentile(size_t n, double cap = 99.0);

/// Nearest-rank percentile `p` (0..100] of `values` (sorted in place);
/// 0 for an empty vector.
double Percentile(std::vector<double>& values, double p);

/// A latency sample set reduced to what the ledger reports.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;          ///< value at tail_percentile
  double tail_percentile = 0.0;
  double mean = 0.0;
};
/// `tail_cap` caps the reported tail percentile (see TailPercentile).
Summary Summarize(std::vector<double> values, double tail_cap = 99.0);

/// One Prometheus text exposition, keyed by series ("name{labels}" or
/// bare "name"). Comments and histogram _bucket series are skipped.
using Scrape = std::map<std::string, double>;
Scrape ParseExposition(std::string_view text);

/// A histogram's _sum/_count growth between two scrapes, summed over
/// every series of `family` whose label set contains `label` (all
/// series when `label` is empty), e.g. label = "verb=\"BOUND\"".
struct HistogramDelta {
  double sum = 0.0;
  double count = 0.0;
  double mean() const { return count > 0.0 ? sum / count : 0.0; }
};
HistogramDelta DeltaOfHistogram(const Scrape& before, const Scrape& after,
                                std::string_view family,
                                std::string_view label = "");
/// Growth of a counter (summed over matching series like above).
double DeltaOfCounter(const Scrape& before, const Scrape& after,
                      std::string_view name, std::string_view label = "");

/// "STATS k=v k=v ..." -> {k: v} (non-numeric values are dropped).
std::map<std::string, double> ParseStatsLine(std::string_view line);

/// Self times along a BOUND's blocking path, derived by subtraction:
/// the client round trip contains the server's HandleLine, which
/// contains the sharded solver's Bound. The three parts add up to
/// client_us by construction.
struct LatencyAttribution {
  double client_us = 0.0;
  double event_loop_self_us = 0.0;  ///< client - handle
  double server_self_us = 0.0;      ///< handle - sharded
  double sharded_us = 0.0;
};
LatencyAttribution AttributeLatency(double client_us, double handle_us,
                                    double sharded_us);

/// The traced run's accounting check, on what can fail (the sum of the
/// parts cannot):
///  - no part of `a` is more negative than `tolerance` x client_us (a
///    child timed longer than its parent means the attribution is
///    measuring different work);
///  - the server's own BOUND latency histogram (admission to reply
///    ready) grew by exactly the `client_count` BOUNDs the client timed;
///  - its mean is at most the client's mean round trip, which contains
///    it, plus `tolerance` of that mean.
/// Returns an empty string when it holds, else what failed.
std::string CheckAccounting(const LatencyAttribution& a, size_t client_count,
                            double client_mean_us,
                            const HistogramDelta& server_bound,
                            double tolerance);

/// One reported metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
/// The benchmark's last output line: one JSON object with exactly the
/// keys correct, attempted, failed and metrics.
std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace pcxbench

#endif  // PCXBENCH_LEDGER_H_
