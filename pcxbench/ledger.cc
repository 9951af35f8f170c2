#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace pcxbench {

double TailPercentile(size_t n, double cap) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (p > cap) continue;
    // Samples strictly beyond the nearest-rank position of p.
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (n - std::min(rank, n) >= kTailSamplesBeyond) return p;
  }
  return 50.0;
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

Summary Summarize(std::vector<double> values, double tail_cap) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  s.p50 = Percentile(values, 50.0);
  s.tail_percentile = TailPercentile(values.size(), tail_cap);
  s.tail = Percentile(values, s.tail_percentile);
  return s;
}

Scrape ParseExposition(std::string_view text) {
  Scrape out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) continue;
    const std::string key(line.substr(0, space));
    const size_t name_end = key.find('{');
    const std::string_view name =
        std::string_view(key).substr(0, name_end);
    if (name.size() > 7 && name.substr(name.size() - 7) == "_bucket") {
      continue;
    }
    const std::string value(line.substr(space + 1));
    char* parse_end = nullptr;
    const double v = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str()) continue;
    out[key] = v;
  }
  return out;
}

namespace {

// Sum of the values of every series named exactly `name` whose label
// block contains `label`.
double SumSeries(const Scrape& scrape, const std::string& name,
                 std::string_view label) {
  double total = 0.0;
  for (auto it = scrape.lower_bound(name); it != scrape.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    if (key.size() != name.size() && key[name.size()] != '{') continue;
    if (!label.empty() &&
        std::string_view(key).substr(name.size()).find(label) ==
            std::string_view::npos) {
      continue;
    }
    total += it->second;
  }
  return total;
}

}  // namespace

HistogramDelta DeltaOfHistogram(const Scrape& before, const Scrape& after,
                                std::string_view family,
                                std::string_view label) {
  const std::string sum_name = std::string(family) + "_sum";
  const std::string count_name = std::string(family) + "_count";
  HistogramDelta d;
  d.sum = SumSeries(after, sum_name, label) - SumSeries(before, sum_name, label);
  d.count = SumSeries(after, count_name, label) -
            SumSeries(before, count_name, label);
  return d;
}

double DeltaOfCounter(const Scrape& before, const Scrape& after,
                      std::string_view name, std::string_view label) {
  const std::string n(name);
  return SumSeries(after, n, label) - SumSeries(before, n, label);
}

std::map<std::string, double> ParseStatsLine(std::string_view line) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(pos, end - pos);
    pos = end + 1;
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;
    const std::string value(token.substr(eq + 1));
    char* parse_end = nullptr;
    const double v = std::strtod(value.c_str(), &parse_end);
    if (value.empty() || *parse_end != '\0') continue;
    out[std::string(token.substr(0, eq))] = v;
  }
  return out;
}

LatencyAttribution AttributeLatency(double client_us, double handle_us,
                                    double sharded_us) {
  LatencyAttribution a;
  a.client_us = client_us;
  a.event_loop_self_us = client_us - handle_us;
  a.server_self_us = handle_us - sharded_us;
  a.sharded_us = sharded_us;
  return a;
}

std::string CheckAccounting(const LatencyAttribution& a, size_t client_count,
                            double client_mean_us,
                            const HistogramDelta& server_bound,
                            double tolerance) {
  if (!(a.client_us > 0.0)) return "no client BOUND latency";
  const double slack = tolerance * a.client_us;
  if (a.event_loop_self_us < -slack || a.server_self_us < -slack ||
      a.sharded_us < -slack) {
    return "a part of the client p50 is negative";
  }
  if (server_bound.count != static_cast<double>(client_count)) {
    return "the server counted " + std::to_string(server_bound.count) +
           " BOUNDs, the client timed " + std::to_string(client_count);
  }
  if (server_bound.mean() > client_mean_us * (1.0 + tolerance)) {
    return "the server's mean BOUND latency " +
           std::to_string(server_bound.mean()) +
           "us exceeds the client's mean round trip " +
           std::to_string(client_mean_us) + "us";
  }
  return "";
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace pcxbench
