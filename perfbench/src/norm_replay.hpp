// Norm-layer replay: captures every norm layer's input rows from exact
// forwards of seeded prompts, then replays them layer by layer through a
// provider's row-block entry point (NormProvider::normalize_rows), in large
// packs (prefill-sized) and small packs (decode-sized). The benchmark's own
// double-precision LayerNorm/RMSNorm of the same rows is the reference the
// outputs are checked against.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/haan_norm.hpp"
#include "core/skip_planner.hpp"
#include "model/norm_provider.hpp"
#include "model/transformer.hpp"

namespace perfbench {

/// Captured norm inputs of one model: inputs[layer] is a (rows x d) block.
struct NormCapture {
  std::string label;  ///< "gpt2" | "llama" (metric-name suffix)
  const model::Transformer* model = nullptr;  ///< owns the affine parameters
  core::SkipPlan plan;
  std::size_t d = 0;
  std::size_t rows = 0;
  std::vector<std::vector<float>> inputs;

  std::size_t layers() const { return inputs.size(); }
  model::NormKind kind() const { return model->config().norm_kind; }
  std::span<const float> alpha(std::size_t layer) const;
  std::span<const float> beta(std::size_t layer) const;
};

/// Runs exact forwards of `prompts` through `model` (whose norm observer this
/// sets and clears) and keeps the first `rows` norm-input rows of every layer.
NormCapture capture_norm_inputs(model::Transformer& model,
                                const std::vector<std::vector<int>>& prompts,
                                std::size_t rows, std::string label,
                                core::SkipPlan plan);

/// Builds a provider for `model` as the server does (core::make_norm_provider
/// with the model's width, name and skip plan); `norm_threads` 0 is the
/// server's default row-pool size.
std::unique_ptr<model::NormProvider> make_provider(const std::string& name,
                                                   const model::Transformer& model,
                                                   const core::SkipPlan& plan,
                                                   std::size_t norm_threads = 0);

/// Replays every pack of `pack_rows` rows through all layers in order
/// (begin_sequence per pack). Writes outputs into `out` (layers x rows x d)
/// when non-null. Returns the per-pack wall times in nanoseconds; with
/// `layer_ns` non-null each call is timed on its own and its time is added to
/// layer_ns[layer].
std::vector<double> replay(model::NormProvider& provider, const NormCapture& capture,
                           std::size_t pack_rows, std::vector<float>* out,
                           std::vector<double>* layer_ns = nullptr);

/// Bound on the haan provider's mean relative L2 error per normalized row of
/// `model`: the standard deviation of the subsampled ISD estimate
/// (core::subsample_noise at the provider's Nsub), plus the skip planner's
/// validated mean log-ISD prediction error, plus one quantization step of the
/// operand format.
double haan_error_bound(const model::Transformer& model, const core::SkipPlan& plan);

/// Accuracy of one provider's full-capture outputs against the double
/// reference: mean relative L2 error per row-layer, the largest absolute
/// element error relative to max(1, |ref|), and the non-finite row count.
struct NormError {
  double mean_rel_l2 = 0.0;
  double max_rel_element = 0.0;
  std::size_t non_finite_rows = 0;
};
NormError compare_to_reference(const NormCapture& capture,
                               const std::vector<float>& out, double eps);

using HaanCounters = core::HaanNormProvider::Counters;

/// Timed replay of captures through exact and haan providers, shared by all
/// workloads. Replay runs on one lane per serving worker the server starts
/// by default (at most one per hardware thread), all at once, as the server's
/// workers normalize side by side; each lane has its own serial providers
/// (one norm thread) and replays every (model, provider, pack size) cell once
/// per round. A four-thread row pool per provider instead turned any
/// descheduled shard into a stalled pack. The pooled in-situ cost is
/// core.norm_insitu_ns_el.
///
/// Every round of a cell does identical work, so a cell's figure is the
/// lower decile of its round times over every lane (kQuietQuantile): on a
/// shared host, neighbours slow whole stretches of ten seconds and more, by up
/// to 50%, which moved the median round between launches by 30% while the
/// lower decile moved by about 5%.
class NormReplayBench {
 public:
  static constexpr std::size_t kSmallPack = 4;  ///< decode-sized pack
  static constexpr double kQuietQuantile = 0.1;

  explicit NormReplayBench(std::vector<NormCapture> captures);

  /// Untimed warm-up (scratch grows) and counter baseline.
  void warm_up();

  /// Replays rounds on every lane until `seconds` have passed (at least one
  /// round each). With `trace` lane 0 times each call on its own, and its
  /// first round's calls are wrapped in benchmark spans (the caller enables
  /// the tracer; lane 0 disables it after that round).
  void run(double seconds, bool trace);

  /// Forgets every timing and round so far and re-bases the counters.
  void clear();

  /// HAAN execution counters summed over every lane's haan providers since
  /// the last warm_up() or clear().
  HaanCounters haan_counters() const;

  /// Row-layers the checks examined and those whose output row held a
  /// non-finite value.
  struct CheckTally {
    std::uint64_t row_layers = 0;
    std::uint64_t failed = 0;
  };

  /// Post-window correctness checks and accuracy figures, into `report`:
  /// one full-capture pass of exact (512-row packs) and two of haan (512-row
  /// and 4-row packs) per model on lane 0, compared with the double
  /// reference.
  CheckTally check(Report& report);

  /// Row-layers replayed per round of one lane, and rounds completed by all
  /// lanes together.
  std::uint64_t row_layers_per_round() const;
  std::uint64_t rounds() const;

  /// End-to-end metrics: pooled ns per normalized element of each provider
  /// and HAAN's mean relative error (set by check()).
  void report_end_to_end(Report& report) const;

  /// Per-layer metrics, suffixed by capture label.
  void report_per_layer(Report& report) const;

  /// One pack's latency through capture `index`'s full haan norm stack (ms),
  /// lower decile over rounds: the 512-row pack, or the mean 4-row pack of a
  /// round's small-pack pass.
  double haan_pack_ms(std::size_t index, bool small) const;
  /// Rows per second of capture `index`'s haan stack over 512-row packs.
  double haan_large_pack_rows_per_s(std::size_t index) const;

 private:
  struct Cell {
    std::vector<double> pass_ns;    ///< per round: whole-capture replay time
    std::vector<double> layer_ns;   ///< traced (lane 0): per-layer call time, summed
    std::size_t layer_passes = 0;   ///< traced (lane 0): passes summed into layer_ns
  };
  /// One lane's providers and timings for one capture.
  struct Lane {
    std::unique_ptr<model::NormProvider> exact;
    std::unique_ptr<model::NormProvider> haan;
    Cell cells[2][2];  ///< [provider: exact, haan][pack: large, small]
    HaanCounters base;  ///< haan counters at the last warm_up()/clear()
  };
  struct Model {
    NormCapture capture;
    std::vector<Lane> lanes;
    double haan_error = 0.0;
  };

  /// One cell's whole-capture pass time: the kQuietQuantile of every lane's
  /// rounds.
  double cell_ns(const Model& m, int provider, int pack) const;
  std::vector<Model> models_;
  std::vector<std::uint64_t> lane_rounds_;  ///< rounds completed per lane
  double haan_error_ = 0.0;
};

}  // namespace perfbench
