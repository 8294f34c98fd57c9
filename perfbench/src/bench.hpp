// Shared pieces of the HAAN benchmark program: run options, the result record
// printed as the last line of standard output, and small timing/statistics
// helpers. The program calls the library's public API only (serve::Server,
// serve::generate_workload, model::Transformer, core::make_norm_provider,
// core::calibrate_skip_plan and the obs tracer).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace haan {}

namespace perfbench {

using namespace haan;  // library modules: serve::, model::, core::, ...

using Clock = std::chrono::steady_clock;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
};

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced one.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable notes printed before the result line (check outcomes).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }

  /// Records a correctness check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Seconds since process start (the first clock read of the program).
double since_process_start_s();

/// Seconds between two clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);

/// Median of an unsorted sample; 0 if empty.
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Derives an independent 64-bit stream seed from the run seed and a label.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// Workload entry points. Each fills `report` with its end-to-end metrics
// (untraced) or its per-layer metrics (traced).
void run_prefill_offline(const Options& options, Report& report);
void run_chat_paced(const Options& options, Report& report);
void run_norm_stream(const Options& options, Report& report);

}  // namespace perfbench
