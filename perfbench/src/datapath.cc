#include "datapath.h"

#include <string>
#include <utility>

#include "analysis/optimizer.h"
#include "bibd/design_factory.h"
#include "core/content.h"
#include "layout/layout.h"
#include "sim/workload.h"
#include "util/units.h"

namespace perfbench {

namespace {

using cmfs::Scheme;

constexpr std::int64_t kBufferBytes = 256 * cmfs::kMiB;
// The capacity planner's storage requirement; it sets the optimizer's
// minimum parity group.
constexpr std::int64_t kStorageBytes = 40 * cmfs::kGiB;

}  // namespace

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool OptimizePaperPoint(PaperPoint* point, RunResult* result) {
  cmfs::CapacityConfig config;
  config.disk = cmfs::DiskParams::Sigmod96();
  config.server = cmfs::ServerParams::Sigmod96(kBufferBytes);
  config.server.num_disks = kNumDisks;
  const std::int64_t t0 = NowNs();
  cmfs::Result<cmfs::OptimizerResult> opt = cmfs::ComputeOptimalFullSweep(
      Scheme::kDeclustered, config, kStorageBytes);
  point->optimize_ms = static_cast<double>(NowNs() - t0) / 1e6;
  ++result->attempted;
  if (!opt.ok()) {
    ++result->failed;
    result->Check(false, "ComputeOptimalFullSweep: " +
                             opt.status().ToString());
    return false;
  }
  point->p = opt->best.parity_group;
  point->q = opt->best.q;
  point->f = opt->best.f;
  point->block = opt->best.block_size;
  // The benchmark's sizes were chosen for this point; a different answer
  // means the analysis changed and the workloads no longer mean the same.
  const bool same = point->p == 3 && point->q == 23 && point->f == 2 &&
                    point->block == 196656;
  if (!same) ++result->failed;
  result->Check(same,
                "optimizer point moved: p=" + std::to_string(point->p) +
                    " q=" + std::to_string(point->q) +
                    " f=" + std::to_string(point->f) +
                    " b=" + std::to_string(point->block));
  return result->correct;
}

std::unique_ptr<DataPath> BuildDataPath(
    const PaperPoint& point, const CatalogSpec& catalog, int lanes,
    const std::optional<cmfs::StreamCacheConfig>& cache, SpanLog* log,
    RunResult* result) {
  auto dp = std::make_unique<DataPath>();
  cmfs::Rng rng(catalog.seed);

  const std::int64_t d0 = NowNs();
  cmfs::Result<cmfs::FactoryDesign> built = [&] {
    SpanScope span(log, "bibd.BuildDesign", 0);
    return cmfs::BuildDesign(kNumDisks, point.p, catalog.seed);
  }();
  dp->design_ms = static_cast<double>(NowNs() - d0) / 1e6;
  if (!built.ok()) {
    result->Check(false, "BuildDesign: " + built.status().ToString());
    return nullptr;
  }
  const int rows = built->stats.min_replication;

  cmfs::WorkloadConfig workload;
  workload.num_clips = catalog.num_clips;
  workload.clip_blocks = catalog.clip_blocks;
  dp->clip_blocks = catalog.clip_blocks;
  dp->placements = cmfs::GeneratePlacements(
      Scheme::kDeclustered, kNumDisks, rows, point.p, workload, rng);

  cmfs::SetupOptions options;
  options.scheme = Scheme::kDeclustered;
  options.num_disks = kNumDisks;
  options.parity_group = point.p;
  options.q = point.q;
  options.f = point.f;
  options.capacity_blocks = cmfs::RequiredCapacity(
      dp->placements, std::vector<std::int64_t>(dp->placements.size(),
                                                catalog.clip_blocks));
  options.design = std::move(built->design);
  options.seed = catalog.seed;
  {
    SpanScope span(log, "core.MakeSetup", 0);
    cmfs::Result<cmfs::ServerSetup> setup = cmfs::MakeSetup(options);
    if (!setup.ok()) {
      result->Check(false, "MakeSetup: " + setup.status().ToString());
      return nullptr;
    }
    dp->setup = std::move(*setup);
  }

  dp->array = std::make_unique<cmfs::DiskArray>(
      kNumDisks, cmfs::DiskParams::Sigmod96(), point.block);
  const std::int64_t p0 = NowNs();
  for (const cmfs::ClipPlacement& placement : dp->placements) {
    for (std::int64_t i = 0; i < catalog.clip_blocks; ++i) {
      const cmfs::Block block = cmfs::PatternBlock(
          placement.space, placement.start + i, point.block);
      SpanScope span(log, "layout.WriteDataBlock", 0);
      const cmfs::Status st =
          cmfs::WriteDataBlock(*dp->setup.layout, *dp->array,
                               placement.space, placement.start + i, block);
      if (!st.ok()) {
        result->Check(false, "WriteDataBlock: " + st.ToString());
        return nullptr;
      }
    }
  }
  dp->populate_s = static_cast<double>(NowNs() - p0) / 1e9;
  dp->populate_mb = static_cast<double>(dp->placements.size()) *
                    static_cast<double>(catalog.clip_blocks) *
                    static_cast<double>(point.block) / 1e6;

  cmfs::ServerConfig config;
  config.block_size = point.block;
  config.buffer_bytes = kBufferBytes;
  config.verify_content = true;
  config.lanes = lanes;
  config.seed = catalog.seed;
  if (cache.has_value()) {
    dp->cache = std::make_unique<cmfs::StreamCache>(*cache);
    for (std::size_t i = 0; i < dp->placements.size(); ++i) {
      dp->cache->RegisterClip(dp->placements[i].space,
                              dp->placements[i].start, catalog.clip_blocks,
                              static_cast<int>(i));
    }
    config.cache = dp->cache.get();
  }
  if (log != nullptr) {
    dp->profiler = std::make_unique<cmfs::PhaseProfiler>();
    config.profiler = dp->profiler.get();
  }
  {
    SpanScope span(log, "core.Server", 0);
    dp->server = std::make_unique<cmfs::Server>(
        dp->array.get(), dp->setup.controller.get(), config);
  }
  return dp;
}

double TimedRound(DataPath& dp, SpanLog* log, std::int64_t round,
                  RunResult* result) {
  const std::int64_t t0 = NowNs();
  cmfs::Status st;
  {
    SpanScope span(log, "core.Server::RunRound", round);
    st = dp.server->RunRound();
  }
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  ++result->attempted;
  if (!st.ok()) {
    ++result->failed;
    result->Check(false, "RunRound " + std::to_string(round) + ": " +
                             st.ToString());
  }
  return ms;
}

void SetPhaseMetrics(const cmfs::PhaseProfiler& profiler,
                     std::int64_t blocks, RunResult* result) {
  const auto phases = profiler.phases();
  auto per_block_ns = [&](const char* phase) {
    const auto it = phases.find(phase);
    if (it == phases.end() || blocks == 0) return 0.0;
    return it->second.total_s * 1e9 / static_cast<double>(blocks);
  };
  for (const char* name : {"plan", "stage", "lanes", "merge", "commit",
                           "reconstruct", "deliver", "cache"}) {
    result->Set(std::string("phase.") + name + "_ns",
                per_block_ns((std::string("server.") + name).c_str()),
                "ns");
  }
  const cmfs::PhaseProfiler::LaneReport lanes = profiler.lanes();
  result->Set("lanes.busy_ratio",
              lanes.busy_ratio.count() > 0 ? lanes.busy_ratio.mean() : 0.0,
              "ratio");
}

void SetSetupMetrics(const std::vector<double>& design_ms,
                     const std::vector<double>& populate_s,
                     const std::vector<double>& populate_mbps,
                     RunResult* result) {
  result->Set("bibd.design_ms", Median(design_ms), "ms");
  result->Set("layout.populate_s", Median(populate_s), "s");
  result->Set("disk.populate_MBps", Median(populate_mbps), "MB/s");
}

void CheckNoHiccups(const cmfs::ServerMetrics& m, RunResult* result) {
  const std::int64_t bad = m.hiccups + m.lost_reads + m.shed_streams;
  result->Check(bad == 0,
                "hiccup_share must be 0: hiccups=" +
                    std::to_string(m.hiccups) +
                    " lost=" + std::to_string(m.lost_reads) +
                    " shed=" + std::to_string(m.shed_streams));
}

}  // namespace perfbench
