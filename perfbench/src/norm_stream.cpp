// norm-stream: the norm layer with no server around it. Set-up builds the
// gpt2-117m (LayerNorm, FP16 operands, Nsub = d/2) and llama7b (RMSNorm, INT8
// operands, Nsub = d/16) surrogates and calibrates each one's skip plan;
// norm-layer inputs captured from exact forwards of seeded prompts are then
// replayed layer by layer through the exact and haan providers, in
// prefill-sized and decode-sized packs.
#include <algorithm>

#include "bench.hpp"
#include "core/calibration.hpp"
#include "core/haan_norm.hpp"
#include "kernels/autotune.hpp"
#include "norm_replay.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCaptureRows = 512;

std::vector<std::vector<int>> seeded_prompts(std::size_t vocab, std::uint64_t seed) {
  // Whole prompts of 16-128 tokens until kCaptureRows rows are covered.
  std::vector<std::vector<int>> prompts;
  std::size_t rows = 0;
  for (std::uint64_t k = 0; rows < kCaptureRows; ++k) {
    const std::size_t length = 16 + derive_seed(seed, 2 * k) % 113;
    std::vector<int> prompt(length);
    for (std::size_t i = 0; i < length; ++i) {
      prompt[i] = static_cast<int>(derive_seed(seed, 2 * k + 1 + 1000003 * (i + 1)) % vocab);
    }
    rows += length;
    prompts.push_back(std::move(prompt));
  }
  return prompts;
}

}  // namespace

void run_norm_stream(const Options& options, Report& report) {
  // Set-up: the program's own calls (weights, autotune, calibration).
  Clock::time_point t = Clock::now();
  model::Transformer gpt2(model::gpt2_117m_surrogate());
  model::Transformer llama(model::llama7b_surrogate());
  const double weights_s = seconds_between(t, Clock::now());
  t = Clock::now();
  kernels::tuned_for(gpt2.config().d_model);
  kernels::tuned_for(llama.config().d_model);
  const double autotune_s = seconds_between(t, Clock::now());
  t = Clock::now();
  const core::SkipPlan gpt2_plan = core::calibrate_skip_plan(gpt2).plan;
  const core::SkipPlan llama_plan = core::calibrate_skip_plan(llama).plan;
  const double calibrate_s = seconds_between(t, Clock::now());
  double setup_s = since_process_start_s();

  std::vector<NormCapture> captures;
  captures.push_back(capture_norm_inputs(
      gpt2, seeded_prompts(gpt2.config().vocab_size, derive_seed(options.seed, 1)),
      kCaptureRows, "gpt2", gpt2_plan));
  captures.push_back(capture_norm_inputs(
      llama, seeded_prompts(llama.config().vocab_size, derive_seed(options.seed, 2)),
      kCaptureRows, "llama", llama_plan));

  t = Clock::now();
  NormReplayBench norm(std::move(captures));  // provider construction
  setup_s += seconds_between(t, Clock::now());
  norm.warm_up();

  if (options.trace) {
    // Untraced then traced halves of the window; the per-round wall ratio is
    // the tracing overhead.
    const Clock::time_point u = Clock::now();
    norm.run(options.seconds / 2.0, false);
    const double untraced_s = seconds_between(u, Clock::now());
    const std::uint64_t untraced_rounds = norm.rounds();
    norm.clear();
    obs::tracer().reset();
    obs::tracer().set_enabled(true);
    const Clock::time_point traced = Clock::now();
    norm.run(options.seconds / 2.0, true);
    const double traced_s = seconds_between(traced, Clock::now());
    obs::tracer().set_enabled(false);
    report.set("obs.dropped_events", static_cast<double>(obs::tracer().stats().dropped),
               "count");
    obs::tracer().reset();
    const double untraced_round = untraced_s / static_cast<double>(untraced_rounds);
    const double traced_round = traced_s / static_cast<double>(norm.rounds());
    report.set("obs.untraced_wall_s", untraced_s, "s");
    report.set("obs.traced_wall_s", traced_s, "s");
    report.set("obs.trace_overhead", traced_round / untraced_round, "ratio");
    report.set("model.weights_s", weights_s, "s");
    report.set("kernels.autotune_s", autotune_s, "s");
    report.set("core.calibrate_s", calibrate_s, "s");
  } else {
    norm.run(options.seconds, false);
  }
  const std::uint64_t timed_row_layers = norm.rounds() * norm.row_layers_per_round();
  const double rss_mb = peak_rss_mb();

  // A row-layer is one row through one norm layer. Timed replays write to
  // scratch; the check passes keep every output row, and a row-layer whose
  // output holds a non-finite value there counts as failed.
  const HaanCounters counters = norm.haan_counters();
  const NormReplayBench::CheckTally checked = norm.check(report);
  report.attempted = timed_row_layers + checked.row_layers;
  report.failed = checked.failed;

  if (options.trace) {
    norm.report_per_layer(report);
    report.set("core.isd_computed", static_cast<double>(counters.isd_computed), "count");
    report.set("core.isd_predicted", static_cast<double>(counters.isd_predicted), "count");
    report.set("core.elements_read", static_cast<double>(counters.elements_read), "count");
    report.set("core.rows_per_call",
               counters.batched_norm_calls == 0
                   ? 0.0
                   : static_cast<double>(counters.batched_rows) /
                         static_cast<double>(counters.batched_norm_calls),
               "rows");
    return;
  }
  report.set("setup_s", setup_s, "s");
  report.set("peak_rss_mb", rss_mb, "MB");
  // The serving metrics read the haan norm stack's own share of them here,
  // each the lower decile over rounds: the gpt2 stack's prompt-row rate over
  // prefill-sized packs, and one prefill-sized (ttft) and one decode-sized
  // (itl) pack's latency: the gpt2 stack under the p50 names and the
  // heavier llama stack under ttft_p95. Per-pack tail percentiles of a
  // sub-millisecond call read the host's scheduling noise, not the stack.
  constexpr std::size_t kGpt2 = 0, kLlama = 1;
  report.set("prefill_tok_per_s", norm.haan_large_pack_rows_per_s(kGpt2), "tok/s");
  report.set("ttft_p50_ms", norm.haan_pack_ms(kGpt2, false), "ms");
  report.set("ttft_p95_ms", norm.haan_pack_ms(kLlama, false), "ms");
  report.set("itl_p50_ms", norm.haan_pack_ms(kGpt2, true), "ms");
  norm.report_end_to_end(report);
}

}  // namespace perfbench
