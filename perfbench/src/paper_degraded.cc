// paper-degraded: the byte data path at paper scale. 600 viewers in a
// closed loop over a catalog that fits in memory: each viewer starts
// a new (seeded, uniform) clip when its clip ends and is re-offered every
// round until admitted. One disk fails at kFailRound, so most rounds run
// degraded. No cache, no churn engine, lanes fixed at 2.

#include <memory>
#include <optional>
#include <vector>

#include "datapath.h"

namespace perfbench {

namespace {

constexpr int kViewers = 600;
constexpr int kDegradedClips = 32;
constexpr std::int64_t kDegradedClipBlocks = 48;
constexpr int kDegradedLanes = 2;
constexpr std::int64_t kFailRound = 24;
// Set-ups per run: setup_s and the first-round cost are their medians.
constexpr int kSetups = 5;
// session_reject_share is taken over rounds 1..kShareRounds, so it depends
// on the seed alone, not on how many rounds the host fits in the run.
constexpr std::int64_t kShareRounds = 800;
// Rounds in one measuring window (see RoundWindow): p95 of 200 rounds
// leaves 10 beyond it. kShareRounds is a whole number of windows.
constexpr std::int64_t kWindowRounds = 200;

// The closed viewer loop on one server: admission offers, the scheduled
// failure, then one timed RunRound.
struct ClosedLoop {
  DataPath* dp = nullptr;
  SpanLog* log = nullptr;
  std::uint64_t seed = 0;
  int fail_disk = 0;
  // Clip each waiting viewer wants next.
  std::vector<int> waiting;
  std::uint64_t clip_draws = 0;
  // Sessions admitted (= stream ids handed out) and offers refused. A
  // waiting viewer is offered once per round, so `refusals` counts the
  // viewer-rounds spent waiting.
  std::int64_t next_id = 0;
  std::int64_t refusals = 0;
  std::int64_t completed_seen = 0;

  ClosedLoop(DataPath* path, SpanLog* span_log, std::uint64_t s)
      : dp(path), log(span_log), seed(s),
        fail_disk(static_cast<int>(Mix(s + 1) % kNumDisks)) {
    for (int v = 0; v < kViewers; ++v) waiting.push_back(DrawClip());
  }

  int DrawClip() {
    return static_cast<int>(Mix(seed ^ Mix(clip_draws++)) %
                            dp->placements.size());
  }

  // Runs round `round`; returns its RunRound wall time in ms.
  double Step(std::int64_t round, RunResult* result) {
    cmfs::Server& server = *dp->server;
    if (round == kFailRound) {
      SpanScope span(log, "disk.DiskArray::FailDisk", round);
      const cmfs::Status st = server.FailDisk(fail_disk);
      result->Check(st.ok(), "FailDisk: " + st.ToString());
    }
    const std::int64_t completed = server.metrics().completed_streams;
    for (; completed_seen < completed; ++completed_seen) {
      waiting.push_back(DrawClip());
    }
    std::vector<int> still;
    for (int clip : waiting) {
      const cmfs::ClipPlacement& c =
          dp->placements[static_cast<std::size_t>(clip)];
      bool admitted = false;
      {
        SpanScope span(log, "core.Server::TryAdmit", round);
        admitted =
            server.TryAdmit(next_id, c.space, c.start, dp->clip_blocks);
      }
      if (admitted) {
        ++next_id;
      } else {
        ++refusals;
        still.push_back(clip);
      }
    }
    waiting.swap(still);
    return TimedRound(*dp, log, round, result);
  }
};

}  // namespace

RunResult RunPaperDegraded(const Options& options) {
  RunResult result;
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  PaperPoint point;
  std::vector<double> setup_s, first_ms, design_ms, populate_s,
      populate_mbps;
  std::unique_ptr<DataPath> dp;
  std::unique_ptr<ClosedLoop> loop;
  const CatalogSpec catalog{kDegradedClips, kDegradedClipBlocks,
                            kCatalogSeed};
  if (!OptimizePaperPoint(&point, &result)) return result;
  // Each set-up is followed by its cold first round; the last one stays
  // for the measured run.
  for (int i = 0; i < kSetups; ++i) {
    loop.reset();
    dp.reset();
    const std::int64_t t0 = NowNs();
    dp = BuildDataPath(point, catalog, kDegradedLanes, std::nullopt, log,
                       &result);
    if (dp == nullptr) return result;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    design_ms.push_back(dp->design_ms);
    populate_s.push_back(dp->populate_s);
    populate_mbps.push_back(dp->populate_mb / dp->populate_s);
    loop = std::make_unique<ClosedLoop>(dp.get(), log, Mix(options.seed));
    first_ms.push_back(loop->Step(0, &result));
    if (!result.correct) return result;
  }

  cmfs::Server& server = *dp->server;
  std::vector<double> healthy_ms, degraded_ms, critical;
  critical.push_back(server.last_lane_critical_reads());
  // The first round's burst of sessions is left out of the rates.
  const std::int64_t refused0 = loop->refusals;
  std::int64_t refused = 0;
  const std::int64_t deliveries0 = server.metrics().deliveries;
  std::vector<RoundWindow> windows;
  const std::int64_t loop_start = NowNs();
  std::int64_t round_start = loop_start;
  for (std::int64_t round = 1;; ++round) {
    if (round % kWindowRounds == 1) windows.emplace_back();
    RoundWindow& window = windows.back();
    const std::int64_t admitted_before = loop->next_id;
    const bool degraded = round >= kFailRound;
    const double ms = loop->Step(round, &result);
    if (!result.correct) return result;
    critical.push_back(server.last_lane_critical_reads());
    (degraded ? degraded_ms : healthy_ms).push_back(ms);
    const std::int64_t round_end = NowNs();
    window.round_ms.push_back(ms);
    window.wall_s += static_cast<double>(round_end - round_start) / 1e9;
    window.arrivals += loop->next_id - admitted_before;
    round_start = round_end;
    if (round == kShareRounds) refused = loop->refusals - refused0;
    // The run ends with a whole window once --seconds have passed.
    if (round % kWindowRounds == 0 && round >= kShareRounds &&
        static_cast<double>(round_end - loop_start) / 1e9 >=
            options.seconds) {
      break;
    }
  }
  const double loop_s = static_cast<double>(round_start - loop_start) / 1e9;
  const RoundFigures figures = MedianOverWindows(windows);

  const cmfs::ServerMetrics& m = server.metrics();
  CheckNoHiccups(m, &result);
  result.Check(m.max_disk_window_reads <= point.q,
               "a disk served more than q blocks in a round");
  const double rounds = static_cast<double>(m.rounds);

  if (options.trace) {
    SetSetupMetrics(design_ms, populate_s, populate_mbps, &result);
    result.Set("analysis.optimize_ms", point.optimize_ms, "ms");
    result.Set("core.server.round_healthy_p50_ms", Median(healthy_ms), "ms");
    result.Set("core.server.round_degraded_p50_ms", Median(degraded_ms),
               "ms");
    result.Set("core.server.reads_per_round",
               static_cast<double>(m.total_reads) / rounds, "count");
    result.Set("core.server.recovery_reads_per_round",
               static_cast<double>(m.recovery_reads) / rounds, "count");
    result.Set("core.server.deliveries_per_round",
               static_cast<double>(m.deliveries) / rounds, "count");
    result.Set("core.server.lane_critical_reads_p50", Quantile(critical, 0.5),
               "count");
    result.Set("core.server.lane_critical_reads_p95",
               Quantile(critical, 0.95), "count");
    result.Set("core.server.first_round_ms", Median(first_ms), "ms");
    result.Set("core.server.delivered_MBps",
               static_cast<double>(m.deliveries - deliveries0) *
                   static_cast<double>(point.block) / 1e6 / loop_s,
               "MB/s");
    result.Set("trace.rounds_per_s", figures.rounds_per_s, "1/s");
    SetPhaseMetrics(*dp->profiler, m.deliveries, &result);
    if (!options.spans_out.empty() &&
        !spans.WriteChromeTrace(options.spans_out)) {
      result.Check(false, "cannot write spans to " + options.spans_out);
    }
  } else {
    result.Set("rounds_per_s", figures.rounds_per_s, "1/s");
    result.Set("round_p50_ms", figures.p50_ms, "ms");
    result.Set("round_tail_ms", figures.p95_ms, "ms");
    result.Set("arrivals_per_s", figures.arrivals_per_s, "1/s");
    // Viewer-rounds spent refused / all viewer-rounds: the share of demand
    // the server turns away. Not refused / offered: most offers go to the
    // backlog, so that share sits near 0.94 and could not worsen by its
    // bound.
    result.Set("session_reject_share",
               static_cast<double>(refused) /
                   (static_cast<double>(kViewers) *
                    static_cast<double>(kShareRounds)),
               "share");
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("peak_rss_MB", PeakRssMb(), "MB");
  }
  return result;
}

}  // namespace perfbench
