#include "common.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {

constexpr const char* kUsage =
    "usage: cmfs_perfbench --workload <paper-degraded|churn-cache-rebuild|"
    "fig6-capacity>\n"
    "                      --seed <n> --seconds <s> --trace <0|1>\n"
    "                      [--spans-out <path>]\n";

bool Fail(const std::string& why) {
  std::fprintf(stderr, "cmfs_perfbench: %s\n%s", why.c_str(), kUsage);
  return false;
}

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return Fail("help requested");
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--spans-out") {
      return Fail("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) return Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "paper-degraded" && value != "churn-cache-rebuild" &&
          value != "fig6-capacity") {
        return Fail("unknown workload '" + value + "'");
      }
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &options->seed)) {
        return Fail("--seed needs a non-negative integer, got '" + value +
                    "'");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseDouble(value, &options->seconds) ||
          options->seconds <= 0.0 || options->seconds > 3600.0) {
        return Fail("--seconds needs a number in (0, 3600], got '" +
                    value + "'");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Fail("--trace needs 0 or 1, got '" + value + "'");
      }
      options->trace = value == "1";
      have_trace = true;
    } else {
      if (value.empty()) return Fail("--spans-out needs a path");
      options->spans_out = value;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Fail("--workload, --seed, --seconds and --trace are required");
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

RoundFigures MedianOverWindows(const std::vector<RoundWindow>& windows) {
  std::vector<double> rates, p50s, p95s, arrivals;
  for (const RoundWindow& w : windows) {
    if (w.round_ms.empty()) continue;
    rates.push_back(static_cast<double>(w.round_ms.size()) / w.wall_s);
    p50s.push_back(Median(w.round_ms));
    p95s.push_back(Quantile(w.round_ms, 0.95));
    arrivals.push_back(static_cast<double>(w.arrivals) / w.wall_s);
  }
  RoundFigures figures;
  figures.rounds_per_s = Median(rates);
  figures.p50_ms = Median(p50s);
  figures.p95_ms = Median(p95s);
  figures.arrivals_per_s = Median(arrivals);
  return figures;
}

std::int32_t SpanLog::Open(const char* name, std::int64_t round) {
  Span span;
  span.name = name;
  span.round = round;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const std::int32_t index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::Close(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = NowNs();
  open_.pop_back();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"round\":%lld,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.round), s.parent);
  }
  std::fprintf(out, "\n]\n");
  return std::fclose(out) == 0;
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += JsonEscape(metric.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
