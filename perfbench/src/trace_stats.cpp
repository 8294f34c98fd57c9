#include "trace_stats.hpp"

#include <cstdlib>
#include <sstream>

namespace perfbench {

namespace {

/// The string value of `"key":"..."` in one exported event line, or empty.
std::string string_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string::npos ? std::string{} : line.substr(begin, end - begin);
}

/// The numeric value of `"key":<number>` in one exported event line.
bool number_field(const std::string& line, const char* key, double& value) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = line.c_str() + at + needle.size();
  char* end = nullptr;
  value = std::strtod(begin, &end);
  return end != begin;
}

struct Open {
  std::string name;
  std::string phase;
  double begin_us = 0.0;
  double child_us = 0.0;
  double rows = 0.0;
};

struct ThreadState {
  std::string name;
  std::vector<Open> stack;
  double forward_end_us = -1.0;    ///< end of the last top-level forward, if open
  double complete_end_us = -1.0;   ///< end of the last complete after it
  double complete_us = 0.0;        ///< complete-span time since forward_end_us
  double untraced_us = 0.0;

  /// Closes the post-forward interval at the last completion, if any.
  void close_post_forward() {
    if (forward_end_us >= 0.0 && complete_end_us >= 0.0) {
      untraced_us += complete_end_us - forward_end_us - complete_us;
    }
    forward_end_us = complete_end_us = -1.0;
    complete_us = 0.0;
  }
};

}  // namespace

const SpanTotals& TraceStats::span(const std::string& name) const {
  static const SpanTotals kEmpty;
  const auto it = spans.find(name);
  return it == spans.end() ? kEmpty : it->second;
}

TraceStats analyze_chrome_trace(const std::string& json) {
  TraceStats stats;
  std::map<long, ThreadState> threads;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = string_field(line, "ph");
    if (ph.empty()) continue;
    double tid_value = 0.0;
    if (!number_field(line, "tid", tid_value)) continue;
    ThreadState& thread = threads[static_cast<long>(tid_value)];
    if (ph == "M") {
      // {"ph":"M",...,"name":"thread_name","args":{"name":"worker-0"}}
      const std::size_t args = line.find("\"args\"");
      if (args != std::string::npos) {
        thread.name = string_field(line.substr(args), "name");
      }
      continue;
    }
    double ts = 0.0;
    if (!number_field(line, "ts", ts)) continue;
    if (ph == "B") {
      Open open;
      open.name = string_field(line, "name");
      if (thread.stack.empty() && open.name != "complete") thread.close_post_forward();
      open.phase = string_field(line, "phase");
      open.begin_us = ts;
      double rows = 0.0;
      if (number_field(line, "b", rows)) open.rows = rows;
      thread.stack.push_back(std::move(open));
    } else if (ph == "E" && !thread.stack.empty()) {
      const Open open = thread.stack.back();
      thread.stack.pop_back();
      const double duration = ts - open.begin_us;
      SpanTotals& totals = stats.spans[open.name];
      totals.count += 1;
      totals.total_ms += duration / 1000.0;
      totals.self_ms += (duration - open.child_us) / 1000.0;
      totals.rows += static_cast<std::uint64_t>(open.rows);
      if (!thread.stack.empty()) {
        thread.stack.back().child_us += duration;
      } else if (open.name == "forward") {
        thread.close_post_forward();
        thread.forward_end_us = ts;
      } else if (open.name == "complete" && thread.forward_end_us >= 0.0) {
        thread.complete_end_us = ts;
        thread.complete_us += duration;
      }
      if (open.name == "forward") {
        stats.forward_ms[open.phase.empty() ? "prefill" : open.phase].push_back(
            duration / 1000.0);
      }
    }
  }
  for (auto& [tid, thread] : threads) {
    if (thread.name.rfind("worker-", 0) != 0) continue;
    thread.close_post_forward();
    stats.worker_untraced_ms += thread.untraced_us / 1000.0;
  }
  return stats;
}

}  // namespace perfbench
