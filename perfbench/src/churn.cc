// churn-cache-rebuild: the paper array under online session churn.
//
// Sessions arrive by Poisson with zipf(0.271) clip popularity over a small
// catalog, pause/resume/seek, and pass through the AdmissionEngine
// (busiest-disk bound, FIFO wait queue). The stream cache is on. One disk
// fails, is swapped for a blank one, and is rebuilt online while
// sessions keep playing. Lanes are fixed at 1.
//
// One episode is the whole fixed-length scenario, from set-up to the last
// round. The round loop below is RunScenario's churn loop with every call
// into a layer timed from outside. After the episodes, the first
// episode's config is replayed through RunScenario itself, which must
// report the same admitted, rejected, timed-out, delivered, cache-served
// and rebuilt counts.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/rebuild.h"
#include "core/server.h"
#include "core/stream_cache.h"
#include "datapath.h"
#include "sim/churn_workload.h"
#include "sim/failure_drill.h"

namespace perfbench {

namespace {

constexpr int kChurnLanes = 1;
constexpr std::int64_t kRounds = 200;
constexpr std::int64_t kChurnFailRound = 20;
constexpr std::int64_t kSwapRound = 40;
constexpr int kRebuildBudget = 1;
// Nominal length of one episode (set-up + 200 rounds) on a 4-core Xeon;
// a run plays round(--seconds / kEpisodeSeconds) episodes, so its inputs
// depend on the seed and the run length only, never on the machine's
// speed.
constexpr double kEpisodeSeconds = 4.0;

cmfs::ChurnConfig MakeChurnConfig() {
  cmfs::ChurnConfig churn;
  churn.num_clips = 8;
  churn.clip_blocks = 800;
  churn.arrivals_per_round = 8.0;
  churn.mean_hold_rounds = 25.0;
  churn.zipf_theta = 0.271;
  churn.pause_prob = 0.2;
  churn.mean_pause_rounds = 6.0;
  churn.seek_prob = 0.15;
  return churn;
}

cmfs::StreamCacheConfig MakeCacheConfig() {
  cmfs::StreamCacheConfig cache;
  cache.budget_blocks = 256;
  cache.window_rounds = 8;
  cache.prefix_blocks = 8;
  cache.hot_clips = 6;
  return cache;
}

// The scenario this workload runs, as RunScenario takes it.
cmfs::ScenarioConfig MakeScenario(const PaperPoint& point,
                                  std::uint64_t seed) {
  cmfs::ScenarioConfig config;
  config.scheme = cmfs::Scheme::kDeclustered;
  config.num_disks = kNumDisks;
  config.parity_group = point.p;
  config.q = point.q;
  config.f = point.f;
  config.block_size = point.block;
  config.total_rounds = kRounds;
  config.lanes = kChurnLanes;
  config.seed = kCatalogSeed;
  const int disk = static_cast<int>(Mix(seed + 1) % kNumDisks);
  config.schedule.fail_stops.push_back(
      cmfs::FailStopEvent{disk, kChurnFailRound});
  config.schedule.swaps.push_back(
      cmfs::SwapEvent{disk, kSwapRound, kRebuildBudget});
  config.churn = true;
  config.churn_config = MakeChurnConfig();
  config.churn_config.seed = Mix(seed);
  config.admission.bound = cmfs::AdmissionBound::kBusiestDisk;
  config.cache = true;
  config.cache_config = MakeCacheConfig();
  return config;
}

// The counts RunScenario must reproduce.
struct Outcome {
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t timeouts = 0;
  std::int64_t deliveries = 0;
  std::int64_t cache_served = 0;
  std::int64_t rebuilt_blocks = 0;

  bool operator==(const Outcome&) const = default;
  std::string ToString() const {
    return "admitted=" + std::to_string(admitted) +
           " rejected=" + std::to_string(rejected) +
           " timeouts=" + std::to_string(timeouts) +
           " deliveries=" + std::to_string(deliveries) +
           " cache_served=" + std::to_string(cache_served) +
           " rebuilt_blocks=" + std::to_string(rebuilt_blocks);
  }
};

// Everything one episode measured.
struct Episode {
  Outcome outcome;
  double setup_s = 0.0;
  double design_ms = 0.0;
  double populate_s = 0.0;
  double populate_mbps = 0.0;
  double first_ms = 0.0;
  // After the first round.
  double loop_s = 0.0;
  std::vector<double> round_ms;
  // The same rounds split by whether a disk was down (failed or
  // rebuilding), and every round's busiest-disk read depth.
  std::vector<double> healthy_ms;
  std::vector<double> degraded_ms;
  std::vector<double> critical;
  std::int64_t events = 0;
  double admission_ns = 0.0;
  double rebuild_ns = 0.0;
  std::int64_t rebuild_rounds = 0;
  cmfs::AdmissionSummary admission;
  cmfs::StreamCacheSummary cache;
  cmfs::ServerMetrics metrics;
  std::unique_ptr<cmfs::PhaseProfiler> profiler;
};

// RunScenario's churn loop (sim/failure_drill.cc) for the declustered
// scheme with no QoS ledger, health monitor or fault injector: they
// observe, and the scenario's schedule has no windows for an injector
// to play. Per-disk cause labels only feed the ledger, so they go too.
bool RunEpisode(const cmfs::ScenarioConfig& config, const PaperPoint& point,
                SpanLog* log, Episode* ep, RunResult* result) {
  const std::int64_t t0 = NowNs();
  const CatalogSpec catalog{config.churn_config.num_clips,
                            config.churn_config.clip_blocks, config.seed};
  std::unique_ptr<DataPath> dp =
      BuildDataPath(point, catalog, config.lanes, config.cache_config, log,
                    result);
  if (dp == nullptr) return false;
  ep->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  ep->design_ms = dp->design_ms;
  ep->populate_s = dp->populate_s;
  ep->populate_mbps = dp->populate_mb / dp->populate_s;

  cmfs::Server& server = *dp->server;
  cmfs::DiskArray& array = *dp->array;
  cmfs::ChurnConfig churn_config = config.churn_config;
  churn_config.seed ^= config.seed;
  cmfs::ChurnWorkload churn(churn_config, config.total_rounds, 1);

  std::int64_t round = 0;
  auto gate = [&](const cmfs::AdmissionRequest& req) {
    if (req.kind == cmfs::AdmissionKind::kResume) {
      cmfs::Status st;
      {
        SpanScope span(log, "core.Server::ResumeStream", round);
        st = server.ResumeStream(req.id);
      }
      if (st.ok()) return cmfs::AdmitGate::kAccept;
      if (st.code() == cmfs::StatusCode::kResourceExhausted) {
        return cmfs::AdmitGate::kDefer;
      }
      return cmfs::AdmitGate::kDrop;
    }
    SpanScope span(log, "core.Server::TryAdmit", round);
    return server.TryAdmit(req.id, req.space, req.start, req.length,
                           req.priority)
               ? cmfs::AdmitGate::kAccept
               : cmfs::AdmitGate::kDefer;
  };
  cmfs::AdmissionEngine engine(config.scheme, config.num_disks,
                               config.parity_group, config.q, config.f,
                               config.admission, gate);
  engine.SetEvictFn([&](const cmfs::AdmissionRequest& req) {
    if (req.kind == cmfs::AdmissionKind::kResume) {
      SpanScope span(log, "core.Server::CancelStream", round);
      (void)server.CancelStream(req.id);
    }
  });

  std::unique_ptr<cmfs::Rebuilder> rebuilder;
  int rebuild_target = -1;
  int rebuild_budget_now = 0;
  int completed_rebuilds = 0;
  const std::int64_t stream_blocks = config.churn_config.clip_blocks;
  std::int64_t loop_start = 0;

  for (round = 0; round < config.total_rounds; ++round) {
    // --- the round prolog ---
    for (const cmfs::FailStopEvent& event : config.schedule.fail_stops) {
      if (event.round != round) continue;
      SpanScope span(log, "disk.DiskArray::FailDisk", round);
      const cmfs::Status st = server.FailDisk(event.disk);
      result->Check(st.ok(), "FailDisk: " + st.ToString());
    }
    for (const cmfs::SwapEvent& event : config.schedule.swaps) {
      if (event.round != round) continue;
      const std::int64_t scan =
          array.disk(event.disk).HighestWrittenBlock() + 1;
      SpanScope span(log, "disk.DiskArray::StartRebuild", round);
      const cmfs::Status st = array.StartRebuild(event.disk);
      result->Check(st.ok(), "StartRebuild: " + st.ToString());
      rebuilder = std::make_unique<cmfs::Rebuilder>(
          dp->setup.layout.get(), &array, event.disk,
          std::max<std::int64_t>(scan, 1), event.rebuild_budget);
      if (dp->profiler != nullptr) {
        rebuilder->AttachProfiler(dp->profiler.get());
      }
      rebuild_target = event.disk;
      rebuild_budget_now = event.rebuild_budget;
    }
    if (!result->correct) return false;

    const std::int64_t a0 = NowNs();
    cmfs::AdmissionRoundSignals signals;
    signals.round = round;
    signals.lane_critical_reads = server.last_lane_critical_reads();
    signals.min_quota_cap = config.q;
    signals.rebuilding = rebuilder != nullptr;
    signals.rebuild_budget = rebuild_budget_now;
    signals.disk_failed = array.failed_disk() >= 0;
    signals.active_streams = server.num_active();
    {
      SpanScope span(log, "core.admission.AdmissionEngine::BeginRound",
                     round);
      engine.BeginRound(signals);
    }
    std::int64_t admission_ns = NowNs() - a0;
    std::vector<cmfs::ChurnEvent> events;
    {
      SpanScope span(log, "sim.churn_workload.ChurnWorkload::EventsAt",
                     round);
      events = churn.EventsAt(round);
    }
    ep->events += static_cast<std::int64_t>(events.size());
    auto withdraw = [&](int session) {
      SpanScope span(log, "core.admission.AdmissionEngine::Withdraw", round);
      engine.Withdraw(session);
    };
    auto cancel = [&](int session) {
      SpanScope span(log, "core.Server::CancelStream", round);
      return server.CancelStream(session).ok();
    };
    for (const cmfs::ChurnEvent& event : events) {
      const cmfs::ClipPlacement& placement =
          dp->placements[static_cast<std::size_t>(event.clip)];
      cmfs::AdmissionRequest req;
      req.id = event.session;
      req.priority = 0;
      switch (event.type) {
        case cmfs::ChurnEventType::kArrive:
          req.space = placement.space;
          req.start = placement.start;
          req.length = stream_blocks;
          req.kind = cmfs::AdmissionKind::kArrival;
          break;
        case cmfs::ChurnEventType::kDepart:
          withdraw(event.session);
          cancel(event.session);
          continue;
        case cmfs::ChurnEventType::kPause: {
          withdraw(event.session);
          SpanScope span(log, "core.Server::PauseStream", round);
          (void)server.PauseStream(event.session);
          continue;
        }
        case cmfs::ChurnEventType::kResume:
          req.kind = cmfs::AdmissionKind::kResume;
          break;
        case cmfs::ChurnEventType::kSeek:
          // Seek = cancel + re-admit at the target; a session that is
          // already gone has nothing to seek.
          withdraw(event.session);
          if (!cancel(event.session)) continue;
          req.space = placement.space;
          req.start = placement.start + event.position;
          req.length = stream_blocks - event.position;
          req.kind = cmfs::AdmissionKind::kSeek;
          break;
      }
      const std::int64_t o0 = NowNs();
      {
        SpanScope span(log, "core.admission.AdmissionEngine::Offer", round);
        engine.Offer(req);
      }
      admission_ns += NowNs() - o0;
    }
    ep->admission_ns += static_cast<double>(admission_ns);

    // --- the round ---
    const bool degraded = array.failed_disk() >= 0;
    const double ms = TimedRound(*dp, log, round, result);
    if (!result->correct) return false;
    ep->critical.push_back(server.last_lane_critical_reads());
    if (round == 0) {
      ep->first_ms = ms;
      loop_start = NowNs();
    } else {
      ep->round_ms.push_back(ms);
      (degraded ? ep->degraded_ms : ep->healthy_ms).push_back(ms);
    }

    // --- online rebuild between rounds ---
    if (rebuilder != nullptr && !rebuilder->done()) {
      const std::int64_t r0 = NowNs();
      cmfs::Result<int> rebuilt = [&] {
        SpanScope span(log, "core.rebuild.Rebuilder::RunRound", round);
        return rebuilder->RunRound();
      }();
      ep->rebuild_ns += static_cast<double>(NowNs() - r0);
      ++ep->rebuild_rounds;
      if (!rebuilt.ok()) {
        result->Check(false, "Rebuilder::RunRound: " +
                                 rebuilt.status().ToString());
        return false;
      }
      if (rebuilder->done()) {
        const cmfs::Status st = array.RepairDisk(rebuild_target);
        result->Check(st.ok(), "RepairDisk: " + st.ToString());
        ++completed_rebuilds;
        ep->outcome.rebuilt_blocks += rebuilder->stats().blocks_rebuilt;
        rebuilder.reset();
        rebuild_target = -1;
        rebuild_budget_now = 0;
      }
    }
  }
  ep->loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;

  result->Check(completed_rebuilds == 1 && rebuilder == nullptr,
                "the online rebuild did not complete within the run");
  ep->metrics = server.metrics();
  CheckNoHiccups(ep->metrics, result);
  result->Check(ep->metrics.max_disk_window_reads <= config.q,
                "a disk served more than q blocks in a round");
  ep->admission = engine.Summary();
  ep->cache = dp->cache->Summary();
  ep->outcome.admitted = ep->admission.admitted;
  ep->outcome.rejected = ep->admission.rejected;
  ep->outcome.timeouts = ep->admission.timeouts;
  ep->outcome.deliveries = ep->metrics.deliveries;
  ep->outcome.cache_served = ep->metrics.cache_served_reads;
  ep->profiler = std::move(dp->profiler);
  // The server still points at the profiler; it goes first.
  dp->server.reset();
  return result->correct;
}

}  // namespace

RunResult RunChurnCacheRebuild(const Options& options) {
  RunResult result;
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  PaperPoint point;
  if (!OptimizePaperPoint(&point, &result)) return result;

  // Episode k plays the session timeline and disk failure of seed
  // Mix(--seed) + k, so a run averages over several timelines.
  const std::size_t num_episodes = static_cast<std::size_t>(
      std::max(1L, std::lround(options.seconds / kEpisodeSeconds)));
  std::vector<Episode> episodes(num_episodes);
  for (std::size_t k = 0; k < num_episodes; ++k) {
    const cmfs::ScenarioConfig config =
        MakeScenario(point, Mix(options.seed) + k);
    if (!RunEpisode(config, point, log, &episodes[k], &result)) {
      return result;
    }
  }

  // The production runner must agree with this file's loop on the first
  // episode's config.
  cmfs::Result<cmfs::ScenarioResult> reference =
      cmfs::RunScenario(MakeScenario(point, Mix(options.seed)));
  if (!reference.ok()) {
    result.Check(false, "RunScenario: " + reference.status().ToString());
    return result;
  }
  Outcome expected;
  expected.admitted = reference->admission.admitted;
  expected.rejected = reference->admission.rejected;
  expected.timeouts = reference->admission.timeouts;
  expected.deliveries = reference->metrics.deliveries;
  expected.cache_served = reference->metrics.cache_served_reads;
  expected.rebuilt_blocks = reference->rebuilt_blocks;
  result.Check(episodes.front().outcome == expected,
               "benchmark loop drifted from RunScenario: loop {" +
                   episodes.front().outcome.ToString() +
                   "} vs RunScenario {" + expected.ToString() + "}");

  std::vector<double> setup_s, first_ms, healthy_ms, degraded_ms, critical,
      design_ms, populate_s, populate_mbps;
  // Each episode is one measuring window.
  std::vector<RoundWindow> windows;
  double loop_s = 0.0, admission_ns = 0.0, rebuild_ns = 0.0;
  std::int64_t rounds = 0, rebuild_rounds = 0, rebuilt_blocks = 0,
               events = 0, deliveries = 0, reads = 0, recovery_reads = 0,
               cache_served = 0, evictions = 0, resident_peak = 0,
               requests = 0, admitted = 0, rejected = 0, timeouts = 0;
  cmfs::Histogram wait_rounds;
  for (const Episode& ep : episodes) {
    setup_s.push_back(ep.setup_s);
    first_ms.push_back(ep.first_ms);
    design_ms.push_back(ep.design_ms);
    populate_s.push_back(ep.populate_s);
    populate_mbps.push_back(ep.populate_mbps);
    windows.push_back(RoundWindow{ep.round_ms, ep.loop_s,
                                  ep.admission.requests});
    healthy_ms.insert(healthy_ms.end(), ep.healthy_ms.begin(),
                      ep.healthy_ms.end());
    degraded_ms.insert(degraded_ms.end(), ep.degraded_ms.begin(),
                       ep.degraded_ms.end());
    critical.insert(critical.end(), ep.critical.begin(), ep.critical.end());
    loop_s += ep.loop_s;
    rounds += ep.metrics.rounds;
    admission_ns += ep.admission_ns;
    rebuild_ns += ep.rebuild_ns;
    rebuild_rounds += ep.rebuild_rounds;
    rebuilt_blocks += ep.outcome.rebuilt_blocks;
    events += ep.events;
    deliveries += ep.metrics.deliveries;
    reads += ep.metrics.total_reads;
    recovery_reads += ep.metrics.recovery_reads;
    cache_served += ep.metrics.cache_served_reads;
    evictions += ep.cache.evictions;
    resident_peak = std::max(resident_peak, ep.cache.resident_peak);
    requests += ep.admission.requests;
    admitted += ep.admission.admitted;
    rejected += ep.admission.rejected;
    timeouts += ep.admission.timeouts;
    wait_rounds.Merge(ep.admission.wait_rounds);
  }
  const double n = static_cast<double>(episodes.size());
  const double all_rounds = static_cast<double>(rounds);
  const RoundFigures figures = MedianOverWindows(windows);

  if (options.trace) {
    SetSetupMetrics(design_ms, populate_s, populate_mbps, &result);
    result.Set("analysis.optimize_ms", point.optimize_ms, "ms");
    result.Set("core.server.first_round_ms", Median(first_ms), "ms");
    result.Set("core.server.delivered_MBps",
               static_cast<double>(deliveries) *
                   static_cast<double>(point.block) / 1e6 / loop_s,
               "MB/s");
    result.Set("core.server.round_healthy_p50_ms", Median(healthy_ms), "ms");
    result.Set("core.server.round_degraded_p50_ms", Median(degraded_ms),
               "ms");
    result.Set("core.server.lane_critical_reads_p50", Quantile(critical, 0.5),
               "count");
    result.Set("core.server.lane_critical_reads_p95",
               Quantile(critical, 0.95), "count");
    result.Set("core.server.reads_per_round",
               static_cast<double>(reads) / all_rounds, "count");
    result.Set("core.server.recovery_reads_per_round",
               static_cast<double>(recovery_reads) / all_rounds, "count");
    result.Set("core.server.deliveries_per_round",
               static_cast<double>(deliveries) / all_rounds, "count");
    result.Set("core.admission.round_us", admission_ns / 1e3 / all_rounds,
               "us");
    result.Set("core.admission.wait_rounds_p50", wait_rounds.p50(), "rounds");
    result.Set("core.admission.wait_rounds_p95", wait_rounds.p95(), "rounds");
    result.Set("core.admission.accept_ratio",
               static_cast<double>(admitted) / static_cast<double>(requests),
               "ratio");
    result.Set("core.admission.timeouts", static_cast<double>(timeouts) / n,
               "count");
    result.Set("core.stream_cache.served_share",
               static_cast<double>(cache_served) /
                   static_cast<double>(reads - recovery_reads + cache_served),
               "ratio");
    result.Set("core.stream_cache.evictions",
               static_cast<double>(evictions) / n, "count");
    result.Set("core.stream_cache.resident_peak",
               static_cast<double>(resident_peak), "blocks");
    result.Set("core.rebuild.round_us",
               rebuild_ns / 1e3 / static_cast<double>(rebuild_rounds), "us");
    result.Set("core.rebuild.blocks", static_cast<double>(rebuilt_blocks) / n,
               "count");
    result.Set("core.rebuild.MBps",
               static_cast<double>(rebuilt_blocks) *
                   static_cast<double>(point.block) / 1e6 /
                   (rebuild_ns / 1e9),
               "MB/s");
    result.Set("core.rebuild.rounds_to_complete",
               static_cast<double>(rebuild_rounds) / n, "rounds");
    result.Set("sim.churn_workload.events_per_round",
               static_cast<double>(events) / all_rounds, "count");
    result.Set("trace.rounds_per_s", figures.rounds_per_s, "1/s");
    // Phase costs of the last episode's server.
    const Episode& last = episodes.back();
    SetPhaseMetrics(*last.profiler, last.metrics.deliveries, &result);
    if (!options.spans_out.empty() &&
        !spans.WriteChromeTrace(options.spans_out)) {
      result.Check(false, "cannot write spans to " + options.spans_out);
    }
  } else {
    result.Set("rounds_per_s", figures.rounds_per_s, "1/s");
    result.Set("round_p50_ms", figures.p50_ms, "ms");
    result.Set("round_tail_ms", figures.p95_ms, "ms");
    result.Set("arrivals_per_s", figures.arrivals_per_s, "1/s");
    result.Set("session_reject_share",
               static_cast<double>(rejected + timeouts) /
                   static_cast<double>(requests),
               "share");
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("peak_rss_MB", PeakRssMb(), "MB");
  }
  return result;
}

}  // namespace perfbench
