// fig6-capacity: the Figure 6 admission-only grid (§8.2), 600 TU of
// Poisson arrivals per cell, on one thread. No bytes move: the §7
// analysis (set-up) and the capacity simulator's admission accounting do
// all the work.
//
// The run covers the B = 2 GB half of the grid (5 schemes x p in
// {2,4,8,16,32}): one pass over it takes about 9 s on one core, while
// the whole grid takes about 22 s, more than one run may spend. The
// cells' inputs are the paper's fixed ones, so every admitted count must
// equal the committed Figure 6 table (EXPERIMENTS.md). The seed picks the
// order in which the cells run.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/optimizer.h"
#include "common.h"
#include "sim/driver.h"
#include "util/units.h"

namespace perfbench {

namespace {

using cmfs::Scheme;

struct Cell {
  Scheme scheme;
  int p;
  std::int64_t expected_admitted;
};

constexpr Scheme kSchemes[] = {Scheme::kStreamingRaid, Scheme::kDeclustered,
                               Scheme::kPrefetchFlat,
                               Scheme::kPrefetchParityDisk,
                               Scheme::kNonClustered};
constexpr int kGroups[] = {2, 4, 8, 16, 32};
// Figure 6 (right), B = 2 GB, as committed in EXPERIMENTS.md: rows in
// kSchemes order, columns kGroups.
constexpr std::int64_t kBufferMb = 2048;
constexpr std::int64_t kFigure6[5][5] = {
    {5568, 7872, 8160, 7464, 6232},
    {10368, 9600, 8448, 6912, 5376},
    {10368, 9984, 9216, 8064, 4224},
    {5568, 7776, 8400, 8280, 6912},
    {5568, 8064, 9408, 9706, 7935},
};
constexpr int kNumDisks = 32;
// Nominal length of one pass over the slice on a 4-core Xeon. A run makes
// round(--seconds / kPassSeconds) passes, at least two: two give the 50
// cell samples the tail percentile (p80) needs to leave 10 above it.
constexpr double kPassSeconds = 9.0;
constexpr long kMinPasses = 2;

std::uint64_t SplitMix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string CellName(const Cell& cell) {
  return std::string(cmfs::SchemeName(cell.scheme)) +
         " p=" + std::to_string(cell.p) +
         " B=" + std::to_string(kBufferMb) + "MB";
}

// Sets a cell up: the §7 optimizer at its parity group, with the
// simulation's integer PGT row count (as bench_fig6_simulation does).
bool SetUpCell(const Cell& cell, cmfs::SimConfig* sim, std::string* error) {
  cmfs::CapacityConfig config;
  config.disk = cmfs::DiskParams::Sigmod96();
  config.server = cmfs::ServerParams::Sigmod96(kBufferMb * cmfs::kMiB);
  config.parity_group = cell.p;
  const int rows = std::max(1, (kNumDisks - 1) / (cell.p - 1));
  config.rows_override = static_cast<double>(rows);
  cmfs::Result<cmfs::OptimizerResult> opt =
      cmfs::ComputeOptimal(cell.scheme, config, {cell.p});
  if (!opt.ok() || opt->sweep.empty()) {
    *error = "ComputeOptimal failed for " + CellName(cell);
    return false;
  }
  *sim = cmfs::SimConfig{};
  sim->scheme = cell.scheme;
  sim->num_disks = kNumDisks;
  sim->parity_group = cell.p;
  sim->q = opt->sweep.front().q;
  sim->f = opt->sweep.front().f;
  sim->rows = rows;
  sim->policy = cmfs::AdmissionPolicy::kFirstFit;
  return true;
}

}  // namespace

RunResult RunFig6Capacity(const Options& options) {
  RunResult result;
  std::vector<Cell> cells;
  for (int s = 0; s < 5; ++s) {
    for (int g = 0; g < 5; ++g) {
      cells.push_back(Cell{kSchemes[s], kGroups[g], kFigure6[s][g]});
    }
  }

  // Seeded cell order (Fisher-Yates over splitmix64).
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::uint64_t state = options.seed;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[SplitMix(&state) % i]);
  }

  const cmfs::SimConfig defaults;
  const std::int64_t rounds_per_cell =
      static_cast<std::int64_t>(defaults.workload.duration_tu) *
      defaults.workload.rounds_per_tu;
  const long num_passes =
      std::max(kMinPasses, std::lround(options.seconds / kPassSeconds));
  // A pass sets each cell up right before simulating it; setup_s is the
  // median over passes of a pass's total set-up time. Spread over the
  // pass, the set-up calls also spread over the stretches in which a
  // shared core runs slower, instead of landing in one of them.
  std::vector<double> setup_s, cell_ms;
  std::int64_t arrivals = 0, admitted = 0, cells_run = 0;
  double busy_s = 0.0;
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  for (long pass = 0; pass < num_passes && result.correct; ++pass) {
    double pass_setup_s = 0.0;
    for (std::size_t i : order) {
      const Cell& cell = cells[i];
      cmfs::SimConfig sim_config;
      std::string error;
      const std::int64_t s0 = NowNs();
      const bool ok = [&] {
        SpanScope span(log, "analysis.ComputeOptimal", cells_run);
        return SetUpCell(cell, &sim_config, &error);
      }();
      pass_setup_s += static_cast<double>(NowNs() - s0) / 1e9;
      if (!ok) {
        ++result.attempted;
        ++result.failed;
        result.Check(false, error);
        return result;
      }
      const std::int64_t t0 = NowNs();
      cmfs::Result<cmfs::SimResult> sim = [&] {
        SpanScope span(log, "sim.driver.RunCapacitySim", cells_run);
        return cmfs::RunCapacitySim(sim_config);
      }();
      const std::int64_t ns = NowNs() - t0;
      ++cells_run;
      ++result.attempted;
      if (!sim.ok()) {
        ++result.failed;
        result.Check(false, "RunCapacitySim failed: " + CellName(cell) +
                                ": " + sim.status().ToString());
        continue;
      }
      result.Check(sim->admitted == cell.expected_admitted,
                   CellName(cell) + " admitted " +
                       std::to_string(sim->admitted) +
                       ", Figure 6 table says " +
                       std::to_string(cell.expected_admitted));
      cell_ms.push_back(static_cast<double>(ns) / 1e6);
      busy_s += static_cast<double>(ns) / 1e9;
      arrivals += sim->arrivals;
      admitted += sim->admitted;
    }
    setup_s.push_back(pass_setup_s);
  }

  if (options.trace) {
    result.Set("analysis.optimize_ms", Median(setup_s) * 1e3, "ms");
    result.Set("sim.driver.cell_p50_ms", Median(cell_ms), "ms");
    result.Set("sim.driver.cell_tail_ms", Quantile(cell_ms, 0.8), "ms");
    result.Set("sim.driver.admitted_total",
               static_cast<double>(admitted / num_passes), "count");
    result.Set("trace.rounds_per_s",
               static_cast<double>(rounds_per_cell * cells_run) / busy_s,
               "1/s");
    if (!options.spans_out.empty() &&
        !spans.WriteChromeTrace(options.spans_out)) {
      result.Check(false, "cannot write spans to " + options.spans_out);
    }
  } else {
    std::vector<double> round_ms;
    for (double ms : cell_ms) {
      round_ms.push_back(ms / static_cast<double>(rounds_per_cell));
    }
    result.Set("rounds_per_s",
               static_cast<double>(rounds_per_cell * cells_run) / busy_s,
               "1/s");
    result.Set("round_p50_ms", Median(round_ms), "ms");
    result.Set("round_tail_ms", Quantile(round_ms, 0.8), "ms");
    result.Set("arrivals_per_s", static_cast<double>(arrivals) / busy_s,
               "1/s");
    result.Set("session_reject_share",
               static_cast<double>(arrivals - admitted) /
                   static_cast<double>(arrivals),
               "share");
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("peak_rss_MB", PeakRssMb(), "MB");
  }
  return result;
}

}  // namespace perfbench
