// HAAN benchmark program.
//
//   haan_perfbench --workload <prefill-offline|chat-paced|norm-stream>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Prints check outcomes and every metric with its unit, then, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

bool parse_options(int argc, char** argv, Options& options) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 120.0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run prints every metric of its kind. A workload that has no such
// quantity (a per-layer metric of a module it does not run) reports 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},         {"prefill_tok_per_s", "tok/s"},
    {"ttft_p50_ms", "ms"},     {"ttft_p95_ms", "ms"},         {"itl_p50_ms", "ms"},
    {"norm_exact_ns_el", "ns/el"}, {"norm_haan_ns_el", "ns/el"},
    {"haan_err", "rel"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.form_ms", "ms"},
    {"serve.packs", "count"},
    {"serve.decode_rows_per_pack", "rows"},
    {"serve.worker_untraced_ms", "ms"},
    {"serve.mixed_packs", "count"},
    {"serve.rows_per_pack", "rows"},
    {"serve.pack_occupancy", "ratio"},
    {"serve.kv_peak_mb", "MB"},
    {"model.attn_ms", "ms"},
    {"model.mlp_ms", "ms"},
    {"model.norm_ms", "ms"},
    {"model.forward_self_ms", "ms"},
    {"model.embed_ms", "ms"},
    {"model.shard_ms", "ms"},
    {"model.prefill_forward_p50_ms", "ms"},
    {"model.decode_forward_p50_ms", "ms"},
    {"model.mixed_forward_p50_ms", "ms"},
    {"model.weights_s", "s"},
    {"tensor.linear_macs", "count"},
    {"tensor.mlp_ns_per_mac", "ns"},
    {"core.norm_insitu_ns_el", "ns/el"},
    {"core.norm_share", "ratio"},
    {"core.isd_computed", "count"},
    {"core.isd_predicted", "count"},
    {"core.elements_read", "count"},
    {"core.rows_per_call", "rows"},
    {"core.exact_ns_el.gpt2", "ns/el"},
    {"core.haan_ns_el.gpt2", "ns/el"},
    {"core.exact_ns_el.llama", "ns/el"},
    {"core.haan_ns_el.llama", "ns/el"},
    {"core.haan_computed_ns_el.gpt2", "ns/el"},
    {"core.haan_predicted_ns_el.gpt2", "ns/el"},
    {"core.haan_computed_ns_el.llama", "ns/el"},
    {"core.haan_predicted_ns_el.llama", "ns/el"},
    {"core.small_pack_ns_el.gpt2", "ns/el"},
    {"core.large_pack_ns_el.gpt2", "ns/el"},
    {"core.small_pack_ns_el.llama", "ns/el"},
    {"core.large_pack_ns_el.llama", "ns/el"},
    {"core.haan_err.gpt2", "rel"},
    {"core.haan_err.llama", "rel"},
    {"core.calibrate_s", "s"},
    {"kernels.autotune_s", "s"},
    {"mem.arena_mb", "MB"},
    {"mem.slab_allocations", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.traced_wall_s", "s"},
    {"obs.untraced_wall_s", "s"},
    {"obs.dropped_events", "count"},
};

/// Completes the report with every metric of its kind; false if the workload
/// set a metric outside the list or with another unit.
template <std::size_t N>
bool complete_metrics(Report& report, const MetricSpec (&specs)[N]) {
  for (const auto& [name, metric] : report.metrics) {
    bool known = false;
    for (const MetricSpec& spec : specs) {
      known = known || (name == spec.name && metric.unit == spec.unit);
    }
    if (!known) {
      std::fprintf(stderr, "metric %s [%s] is not in the metric list\n", name.c_str(),
                   metric.unit.c_str());
      return false;
    }
  }
  for (const MetricSpec& spec : specs) {
    if (report.metrics.count(spec.name) == 0) report.set(spec.name, 0.0, spec.unit);
  }
  return true;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  notes.push_back(std::string(ok ? "check ok   : " : "check FAIL : ") + what);
  correct = correct && ok;
}

double since_process_start_s() { return seconds_between(kProcessStart, Clock::now()); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): independent streams per run seed.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse_options(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <prefill-offline|chat-paced|norm-stream> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  Report report;
  if (options.workload == "prefill-offline") {
    run_prefill_offline(options, report);
  } else if (options.workload == "chat-paced") {
    run_chat_paced(options, report);
  } else if (options.workload == "norm-stream") {
    run_norm_stream(options, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  if (!(options.trace ? complete_metrics(report, kPerLayer)
                     : complete_metrics(report, kEndToEnd))) {
    return 3;
  }
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  std::printf("operations : %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-34s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
