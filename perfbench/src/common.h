#ifndef CMFS_PERFBENCH_COMMON_H_
#define CMFS_PERFBENCH_COMMON_H_

// Shared plumbing of the paper-scale benchmark: the strict command line,
// wall-clock helpers, exact order statistics, the in-memory span log of
// the traced run, and the result record every workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its spans (Chrome trace-event JSON);
  // empty = keep them in memory only.
  std::string spans_out;
};

// Parses argv strictly: every flag is known, every flag has a value, and
// every number parses completely and lies in range. Returns false (after
// printing the reason and the usage to stderr) otherwise.
bool ParseOptions(int argc, char** argv, Options* options);

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exact order statistics over a sample (linear interpolation between
// closest ranks, as numpy's default). Empty input yields 0.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

// The rounds of one measuring window: each round's RunRound time, the
// window's wall time and the admission arrivals decided in it. A run's
// round figures are medians over its windows, so a stretch of slow host
// time spoils one window rather than the whole run.
struct RoundWindow {
  std::vector<double> round_ms;
  double wall_s = 0.0;
  std::int64_t arrivals = 0;
};

struct RoundFigures {
  double rounds_per_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double arrivals_per_s = 0.0;
};

// Medians, over the windows that hold a round, of each window's rounds
// per second, RunRound p50 and p95, and arrivals per second.
RoundFigures MedianOverWindows(const std::vector<RoundWindow>& windows);

// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

// One span of the traced run: a call into a layer's public function,
// recorded from outside. Spans of one round share `round`; `parent` is
// the index of the enclosing span (-1 at top level).
struct Span {
  const char* name = "";
  std::int64_t round = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  std::int32_t Open(const char* name, std::int64_t round);
  void Close(std::int32_t index);
  // Writes every span as a Chrome trace-event JSON array.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// RAII span around one call; a no-op when the log is null (untraced run).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::int64_t round)
      : log_(log), index_(log != nullptr ? log->Open(name, round) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Why the run is not correct (empty when it is).
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;

  void Check(bool condition, const std::string& what) {
    if (!condition) {
      correct = false;
      problems.push_back(what);
    }
  }
  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& result);

RunResult RunPaperDegraded(const Options& options);
RunResult RunChurnCacheRebuild(const Options& options);
RunResult RunFig6Capacity(const Options& options);

}  // namespace perfbench

#endif  // CMFS_PERFBENCH_COMMON_H_
