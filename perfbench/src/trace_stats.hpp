// Per-span-name totals from the obs tracer's Chrome trace export: count,
// inclusive duration and self time (duration minus the part of it that child
// spans on the same thread cover), plus the few per-span details the
// per-layer metrics need (forward durations by phase, rows normalized by
// norm spans, untraced worker time after each forward).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;  ///< sum of span durations
  double self_ms = 0.0;   ///< sum of durations minus direct-child coverage
  std::uint64_t rows = 0;  ///< sum of the span's "b" argument (norm spans: rows)
};

struct TraceStats {
  std::map<std::string, SpanTotals> spans;
  /// Durations (ms) of serve "forward" spans by phase tag; untagged spans
  /// (whole-request mega-batch forwards) count as "prefill".
  std::map<std::string, std::vector<double>> forward_ms;
  /// Σ over "worker-*" threads of the untraced time from each top-level
  /// "forward" span's end to the end of the last top-level "complete" span
  /// before the thread's next other top-level span: checksums, logits and
  /// session bookkeeping of the pack's requests up to its last completion.
  /// A pack that completes no request adds nothing, because the existing
  /// spans cannot tell its bookkeeping from the scheduler's wait for work.
  double worker_untraced_ms = 0.0;

  const SpanTotals& span(const std::string& name) const;
};

/// Parses the exporter's one-event-per-line Chrome JSON.
TraceStats analyze_chrome_trace(const std::string& json);

}  // namespace perfbench
