#include "norm_replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "core/calibration.hpp"
#include "core/haan_norm.hpp"
#include "core/provider_factory.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

double elapsed_ns(Clock::time_point from) {
  return std::chrono::duration<double, std::nano>(Clock::now() - from).count();
}

HaanCounters counters_of(const model::NormProvider& provider) {
  const core::HaanNormProvider* haan = core::as_haan_provider(&provider);
  return haan == nullptr ? HaanCounters{} : haan->counters();
}

std::size_t isd_predicted(const model::NormProvider& provider) {
  return counters_of(provider).isd_predicted;
}

std::string format(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", value);
  return buf;
}

}  // namespace

std::span<const float> NormCapture::alpha(std::size_t layer) const {
  const model::ModelWeights& w = model->weights();
  const std::size_t block = layer / 2;
  if (block >= w.blocks.size()) return w.final_alpha;
  return layer % 2 == 0 ? w.blocks[block].norm1_alpha : w.blocks[block].norm2_alpha;
}

std::span<const float> NormCapture::beta(std::size_t layer) const {
  const model::ModelWeights& w = model->weights();
  const std::size_t block = layer / 2;
  if (block >= w.blocks.size()) return w.final_beta;
  return layer % 2 == 0 ? w.blocks[block].norm1_beta : w.blocks[block].norm2_beta;
}

std::unique_ptr<model::NormProvider> make_provider(const std::string& name,
                                                   const model::Transformer& model,
                                                   const core::SkipPlan& plan,
                                                   std::size_t norm_threads) {
  core::ProviderOptions options;
  options.width = model.config().d_model;
  options.model_name = model.config().name;
  options.norm_threads = norm_threads;
  if (name != "exact") options.plan = plan;
  return core::make_norm_provider(name, options);
}

double haan_error_bound(const model::Transformer& model, const core::SkipPlan& plan) {
  core::ProviderOptions options;
  options.width = model.config().d_model;
  options.model_name = model.config().name;
  options.plan = plan;
  const core::HaanConfig config = core::resolve_haan_config("haan", options);
  double quantization = 0.0;
  if (config.format == numerics::NumericFormat::kFP16) quantization = 1.0 / 2048.0;
  if (config.format == numerics::NumericFormat::kINT8) quantization = 1.0 / 127.0;
  return core::subsample_noise(config.nsub, options.width) +
         core::CalibrationOptions{}.planner.max_prediction_error + quantization;
}

NormCapture capture_norm_inputs(model::Transformer& model,
                                const std::vector<std::vector<int>>& prompts,
                                std::size_t rows, std::string label,
                                core::SkipPlan plan) {
  NormCapture capture;
  capture.label = std::move(label);
  capture.model = &model;
  capture.plan = plan;
  capture.d = model.config().d_model;
  capture.rows = rows;
  capture.inputs.assign(model.config().norm_layer_count(), {});
  for (auto& block : capture.inputs) block.reserve(rows * capture.d);

  const auto exact = make_provider("exact", model, plan);
  std::size_t taken = 0;  // rows fully captured by earlier prompts
  model.set_norm_observer([&](std::size_t layer, std::size_t position,
                              std::span<const float> z) {
    if (taken + position >= rows) return;
    auto& block = capture.inputs[layer];
    block.insert(block.end(), z.begin(), z.end());
  });
  for (const std::vector<int>& prompt : prompts) {
    if (taken >= rows) break;
    model.forward_hidden(prompt, *exact);
    taken += prompt.size();
  }
  model.set_norm_observer({});
  for (const auto& block : capture.inputs) {
    if (block.size() != rows * capture.d) capture.rows = 0;  // too few prompts
  }
  return capture;
}

std::vector<double> replay(model::NormProvider& provider, const NormCapture& capture,
                           std::size_t pack_rows, std::vector<float>* out,
                           std::vector<double>* layer_ns) {
  const std::size_t d = capture.d;
  const std::size_t layers = capture.layers();
  std::vector<float> scratch(out == nullptr ? pack_rows * d : 0);
  std::vector<double> pack_ns;
  pack_ns.reserve(capture.rows / pack_rows + 1);
  for (std::size_t first = 0; first < capture.rows; first += pack_rows) {
    const std::size_t n = std::min(pack_rows, capture.rows - first);
    HAAN_TRACE_SPAN("replay-pack", "perfbench", static_cast<std::uint32_t>(n));
    const Clock::time_point start = Clock::now();
    provider.begin_sequence();
    for (std::size_t layer = 0; layer < layers; ++layer) {
      const std::span<const float> x(capture.inputs[layer].data() + first * d, n * d);
      const std::span<float> y =
          out == nullptr ? std::span<float>(scratch.data(), n * d)
                         : std::span<float>(out->data() + (layer * capture.rows + first) * d,
                                            n * d);
      if (layer_ns == nullptr) {
        provider.normalize_rows(layer, 0, capture.kind(), n, x, capture.alpha(layer),
                                capture.beta(layer), y);
        continue;
      }
      HAAN_TRACE_SPAN("replay-layer", "perfbench", static_cast<std::uint32_t>(layer),
                      static_cast<std::uint32_t>(n));
      const Clock::time_point call = Clock::now();
      provider.normalize_rows(layer, 0, capture.kind(), n, x, capture.alpha(layer),
                              capture.beta(layer), y);
      (*layer_ns)[layer] += elapsed_ns(call);
    }
    pack_ns.push_back(elapsed_ns(start));
  }
  return pack_ns;
}

NormError compare_to_reference(const NormCapture& capture,
                               const std::vector<float>& out, double eps) {
  NormError error;
  const std::size_t d = capture.d;
  const bool layer_norm = capture.kind() == model::NormKind::kLayerNorm;
  double sum_rel = 0.0;
  std::size_t counted = 0;
  for (std::size_t layer = 0; layer < capture.layers(); ++layer) {
    const std::span<const float> alpha = capture.alpha(layer);
    const std::span<const float> beta = capture.beta(layer);
    for (std::size_t r = 0; r < capture.rows; ++r) {
      const float* x = capture.inputs[layer].data() + r * d;
      const float* y = out.data() + (layer * capture.rows + r) * d;
      double mean = 0.0;
      if (layer_norm) {
        for (std::size_t i = 0; i < d; ++i) mean += x[i];
        mean /= static_cast<double>(d);
      }
      double second = 0.0;
      for (std::size_t i = 0; i < d; ++i) second += (x[i] - mean) * (x[i] - mean);
      const double isd = 1.0 / std::sqrt(second / static_cast<double>(d) + eps);
      double diff_sq = 0.0;
      double ref_sq = 0.0;
      bool finite = true;
      for (std::size_t i = 0; i < d; ++i) {
        const double a = alpha.empty() ? 1.0 : alpha[i];
        const double b = beta.empty() ? 0.0 : beta[i];
        const double ref = (x[i] - mean) * isd * a + b;
        const double diff = static_cast<double>(y[i]) - ref;
        finite = finite && std::isfinite(y[i]);
        diff_sq += diff * diff;
        ref_sq += ref * ref;
        error.max_rel_element = std::max(
            error.max_rel_element, std::fabs(diff) / std::max(1.0, std::fabs(ref)));
      }
      if (!finite) {
        ++error.non_finite_rows;
        continue;
      }
      sum_rel += std::sqrt(diff_sq / std::max(ref_sq, 1e-30));
      ++counted;
    }
  }
  error.mean_rel_l2 = counted == 0 ? 0.0 : sum_rel / static_cast<double>(counted);
  return error;
}

NormReplayBench::NormReplayBench(std::vector<NormCapture> captures) {
  const std::size_t lanes = std::min<std::size_t>(
      serve::ServerConfig{}.workers, std::max(1u, std::thread::hardware_concurrency()));
  lane_rounds_.assign(lanes, 0);
  for (NormCapture& capture : captures) {
    Model m;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      Lane l;
      l.exact = make_provider("exact", *capture.model, capture.plan, 1);
      l.haan = make_provider("haan", *capture.model, capture.plan, 1);
      m.lanes.push_back(std::move(l));
    }
    m.capture = std::move(capture);
    models_.push_back(std::move(m));
  }
}

void NormReplayBench::warm_up() {
  for (Model& m : models_) {
    for (Lane& lane : m.lanes) {
      for (model::NormProvider* provider : {lane.exact.get(), lane.haan.get()}) {
        replay(*provider, m.capture, m.capture.rows, nullptr);
        replay(*provider, m.capture, kSmallPack, nullptr);
      }
    }
  }
  clear();
}

void NormReplayBench::clear() {
  for (Model& m : models_) {
    for (Lane& lane : m.lanes) {
      for (auto& row : lane.cells) {
        for (Cell& cell : row) cell = Cell{};
      }
      lane.base = counters_of(*lane.haan);
    }
  }
  std::fill(lane_rounds_.begin(), lane_rounds_.end(), 0);
}

HaanCounters NormReplayBench::haan_counters() const {
  HaanCounters sum;
  for (const Model& m : models_) {
    for (const Lane& lane : m.lanes) {
      const HaanCounters now = counters_of(*lane.haan);
      const HaanCounters& base = lane.base;
      sum.norm_calls += now.norm_calls - base.norm_calls;
      sum.isd_computed += now.isd_computed - base.isd_computed;
      sum.isd_predicted += now.isd_predicted - base.isd_predicted;
      sum.elements_read += now.elements_read - base.elements_read;
      sum.fused_residual_norms += now.fused_residual_norms - base.fused_residual_norms;
      sum.batched_norm_calls += now.batched_norm_calls - base.batched_norm_calls;
      sum.batched_rows += now.batched_rows - base.batched_rows;
    }
  }
  return sum;
}

void NormReplayBench::run(double seconds, bool trace) {
  const Clock::time_point start = Clock::now();
  const auto replay_lane = [&](std::size_t index) {
    const bool timed_calls = trace && index == 0;
    do {
      for (Model& m : models_) {
        Lane& lane = m.lanes[index];
        model::NormProvider* providers[2] = {lane.exact.get(), lane.haan.get()};
        for (int p = 0; p < 2; ++p) {
          for (int s = 0; s < 2; ++s) {
            Cell& cell = lane.cells[p][s];
            if (timed_calls && cell.layer_ns.empty()) {
              cell.layer_ns.assign(m.capture.layers(), 0.0);
            }
            const std::size_t pack = s == 0 ? m.capture.rows : kSmallPack;
            const std::vector<double> packs = replay(
                *providers[p], m.capture, pack, nullptr, timed_calls ? &cell.layer_ns : nullptr);
            cell.pass_ns.push_back(std::accumulate(packs.begin(), packs.end(), 0.0));
            if (timed_calls) ++cell.layer_passes;
          }
        }
      }
      ++lane_rounds_[index];
      // One traced round fits the tracer's per-thread rings; later rounds
      // keep lane 0's per-call clock reads but record no spans.
      if (timed_calls) obs::tracer().set_enabled(false);
    } while (seconds_between(start, Clock::now()) < seconds);
  };
  std::vector<std::thread> others;
  for (std::size_t index = 1; index < lane_rounds_.size(); ++index) {
    others.emplace_back(replay_lane, index);
  }
  replay_lane(0);
  for (std::thread& thread : others) thread.join();
}

std::uint64_t NormReplayBench::row_layers_per_round() const {
  std::uint64_t total = 0;
  for (const Model& m : models_) total += 4ULL * m.capture.rows * m.capture.layers();
  return total;
}

std::uint64_t NormReplayBench::rounds() const {
  return std::accumulate(lane_rounds_.begin(), lane_rounds_.end(), std::uint64_t{0});
}

NormReplayBench::CheckTally NormReplayBench::check(Report& report) {
  // The exact provider computes statistics in double and rounds once to
  // float, so it must match the double reference to float rounding.
  constexpr double kExactTolerance = 1e-5;
  double error_sum = 0.0;
  double error_weight = 0.0;
  CheckTally tally;
  for (Model& m : models_) {
    const NormCapture& c = m.capture;
    const std::string tag = c.label + ": ";
    report.check(c.rows > 0, tag + "captured the requested norm-input rows");
    if (c.rows == 0) continue;
    model::NormProvider& exact = *m.lanes.front().exact;
    model::NormProvider& haan = *m.lanes.front().haan;
    std::vector<float> exact_out(c.layers() * c.rows * c.d);
    replay(exact, c, c.rows, &exact_out);
    const NormError exact_error = compare_to_reference(c, exact_out, 1e-5);
    report.check(exact_error.non_finite_rows == 0 &&
                     exact_error.max_rel_element <= kExactTolerance,
                 tag + "exact provider matches the double reference (max rel " +
                     format(exact_error.max_rel_element) + ")");

    const std::size_t expected_predicted = c.rows * c.plan.skipped_count();
    std::vector<float> large_out(exact_out.size());
    std::vector<float> small_out(exact_out.size());
    const std::size_t before_large = isd_predicted(haan);
    replay(haan, c, c.rows, &large_out);
    const std::size_t before_small = isd_predicted(haan);
    replay(haan, c, kSmallPack, &small_out);
    const std::size_t after = isd_predicted(haan);
    report.check(before_small - before_large == expected_predicted &&
                     after - before_small == expected_predicted,
                 tag + "isd_predicted equals rows x skipped layers (" +
                     std::to_string(expected_predicted) + " per pass)");
    report.check(large_out == small_out,
                 tag + "haan output is identical for large and small packs");

    const NormError haan_error = compare_to_reference(c, large_out, 1e-5);
    const NormError small_error = compare_to_reference(c, small_out, 1e-5);
    tally.row_layers += 3 * c.rows * c.layers();
    tally.failed += exact_error.non_finite_rows + haan_error.non_finite_rows +
                    small_error.non_finite_rows;
    const double bound = haan_error_bound(*c.model, c.plan);
    m.haan_error = haan_error.mean_rel_l2;
    report.check(haan_error.non_finite_rows == 0 && haan_error.mean_rel_l2 <= bound,
                 tag + "haan mean relative L2 error " + format(haan_error.mean_rel_l2) +
                     " within bound " + format(bound));
    const double weight = static_cast<double>(c.rows * c.layers());
    error_sum += haan_error.mean_rel_l2 * weight;
    error_weight += weight;
  }
  haan_error_ = error_weight > 0.0 ? error_sum / error_weight : 0.0;
  return tally;
}

double NormReplayBench::cell_ns(const Model& m, int provider, int pack) const {
  std::vector<double> pooled;
  for (const Lane& lane : m.lanes) {
    const std::vector<double>& passes = lane.cells[provider][pack].pass_ns;
    pooled.insert(pooled.end(), passes.begin(), passes.end());
  }
  return percentile(std::move(pooled), kQuietQuantile);
}

void NormReplayBench::report_end_to_end(Report& report) const {
  double exact_ns = 0.0;
  double haan_ns = 0.0;
  double elements = 0.0;
  for (const Model& m : models_) {
    exact_ns += cell_ns(m, 0, 0) + cell_ns(m, 0, 1);
    haan_ns += cell_ns(m, 1, 0) + cell_ns(m, 1, 1);
    elements += 2.0 * static_cast<double>(m.capture.rows * m.capture.layers() * m.capture.d);
  }
  report.set("norm_exact_ns_el", exact_ns / elements, "ns/el");
  report.set("norm_haan_ns_el", haan_ns / elements, "ns/el");
  report.set("haan_err", haan_error_, "rel");
}

void NormReplayBench::report_per_layer(Report& report) const {
  for (const Model& m : models_) {
    const NormCapture& c = m.capture;
    const double pass_elements = static_cast<double>(c.rows * c.layers() * c.d);
    const std::string suffix = "." + c.label;
    report.set("core.exact_ns_el" + suffix,
               (cell_ns(m, 0, 0) + cell_ns(m, 0, 1)) / (2.0 * pass_elements),
               "ns/el");
    report.set("core.haan_ns_el" + suffix,
               (cell_ns(m, 1, 0) + cell_ns(m, 1, 1)) / (2.0 * pass_elements),
               "ns/el");
    report.set("core.large_pack_ns_el" + suffix, cell_ns(m, 1, 0) / pass_elements,
               "ns/el");
    report.set("core.small_pack_ns_el" + suffix, cell_ns(m, 1, 1) / pass_elements,
               "ns/el");
    report.set("core.haan_err" + suffix, m.haan_error, "rel");

    // Traced split of HAAN's time between layers whose ISD is computed and
    // layers whose ISD the predictor supplies (lane 0, both pack sizes pooled).
    double computed_ns = 0.0, predicted_ns = 0.0;
    std::size_t computed_layers = 0, predicted_layers = 0, passes = 0;
    for (int s = 0; s < 2; ++s) {
      const Cell& cell = m.lanes.front().cells[1][s];
      passes += cell.layer_passes;
      for (std::size_t layer = 0; layer < cell.layer_ns.size(); ++layer) {
        (c.plan.skips(layer) ? predicted_ns : computed_ns) += cell.layer_ns[layer];
      }
    }
    for (std::size_t layer = 0; layer < c.layers(); ++layer) {
      ++(c.plan.skips(layer) ? predicted_layers : computed_layers);
    }
    const double row_elements = static_cast<double>(c.rows * c.d * passes);
    report.set("core.haan_computed_ns_el" + suffix,
               computed_layers == 0 || passes == 0
                   ? 0.0
                   : computed_ns / (row_elements * static_cast<double>(computed_layers)),
               "ns/el");
    report.set("core.haan_predicted_ns_el" + suffix,
               predicted_layers == 0 || passes == 0
                   ? 0.0
                   : predicted_ns / (row_elements * static_cast<double>(predicted_layers)),
               "ns/el");
  }
}

double NormReplayBench::haan_pack_ms(std::size_t index, bool small) const {
  const Model& m = models_.at(index);
  const double packs =
      small ? std::ceil(static_cast<double>(m.capture.rows) / kSmallPack) : 1.0;
  return cell_ns(m, 1, small ? 1 : 0) / packs / 1e6;
}

double NormReplayBench::haan_large_pack_rows_per_s(std::size_t index) const {
  const Model& m = models_.at(index);
  return static_cast<double>(m.capture.rows) / (cell_ns(m, 1, 0) / 1e9);
}

}  // namespace perfbench
