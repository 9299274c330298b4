#ifndef CMFS_PERFBENCH_DATAPATH_H_
#define CMFS_PERFBENCH_DATAPATH_H_

// Set-up and helpers shared by the two byte-moving workloads
// (paper-degraded and churn-cache-rebuild). Both build the paper-scale
// array — 32 disks with Figure 1 parameters, declustered parity at the §7
// optimizer's point for B = 256 MB — the way RunScenario does (same
// design, placement and populate calls, in the same order), then drive
// the live Server from their own round loops, timing every call into a
// layer from outside.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common.h"
#include "core/controller_factory.h"
#include "core/server.h"
#include "core/stream_cache.h"
#include "obs/phase_profiler.h"
#include "sim/workload.h"

namespace perfbench {

constexpr int kNumDisks = 32;
// Seeds the block design, the clip placements and the server: the array
// under test is the same in every run. --seed drives only what the users
// do (clip choices, session timelines) and which disk fails.
constexpr std::uint64_t kCatalogSeed = 0x5eedULL;

// splitmix64 finalizer: derives every seeded choice from --seed.
std::uint64_t Mix(std::uint64_t x);

// The §7 optimizer's declustered point for the paper array.
struct PaperPoint {
  int p = 0;
  int q = 0;
  int f = 0;
  std::int64_t block = 0;
  double optimize_ms = 0.0;
};

// Runs the optimizer (capacity_planner's inputs: 32 disks, B = 256 MB,
// 40 GB of storage) and checks it still picks the point the workloads
// were sized for. Counts as one attempted operation, failed unless both
// hold.
bool OptimizePaperPoint(PaperPoint* point, RunResult* result);

struct CatalogSpec {
  int num_clips = 0;
  std::int64_t clip_blocks = 0;
  std::uint64_t seed = 0;
};

// One fully built array + server. Members are declared so that the
// server (which points at everything else) is destroyed first.
struct DataPath {
  std::unique_ptr<cmfs::DiskArray> array;
  cmfs::ServerSetup setup;
  std::vector<cmfs::ClipPlacement> placements;
  std::int64_t clip_blocks = 0;
  std::unique_ptr<cmfs::StreamCache> cache;
  // Attached only in the traced run.
  std::unique_ptr<cmfs::PhaseProfiler> profiler;
  std::unique_ptr<cmfs::Server> server;

  double design_ms = 0.0;
  double populate_s = 0.0;
  double populate_mb = 0.0;
};

// Builds design, layout, populated array and server as RunScenario does
// for a declustered scenario over `catalog`. Null (with the reason
// recorded in `result`) on failure.
std::unique_ptr<DataPath> BuildDataPath(
    const PaperPoint& point, const CatalogSpec& catalog, int lanes,
    const std::optional<cmfs::StreamCacheConfig>& cache, SpanLog* log,
    RunResult* result);

// One timed Server::RunRound; counts it as attempted and checks its
// status. Returns its wall time in ms.
double TimedRound(DataPath& dp, SpanLog* log, std::int64_t round,
                  RunResult* result);

// phase.*_ns (per delivered block) and lanes.busy_ratio from the
// server's PhaseProfiler.
void SetPhaseMetrics(const cmfs::PhaseProfiler& profiler,
                     std::int64_t blocks, RunResult* result);

// bibd.design_ms, layout.populate_s and disk.populate_MBps (medians over
// the run's set-ups).
void SetSetupMetrics(const std::vector<double>& design_ms,
                     const std::vector<double>& populate_s,
                     const std::vector<double>& populate_mbps,
                     RunResult* result);

// hiccup_share must be 0: no hiccup, lost read or shed stream.
void CheckNoHiccups(const cmfs::ServerMetrics& m, RunResult* result);

}  // namespace perfbench

#endif  // CMFS_PERFBENCH_DATAPATH_H_
