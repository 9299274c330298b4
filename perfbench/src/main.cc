// Paper-scale benchmark of the cmfs continuous-media server.
//
//   cmfs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out <path>]
//
// Workloads (perfbench/README.md has the full definitions):
//   paper-degraded       32-disk declustered array at the §7 optimizer's
//                        (p, q, f, b), ~600 closed-loop viewers, one disk
//                        failed early, lanes 2: the byte data path.
//   churn-cache-rebuild  same array; zipf session churn through the
//                        admission engine, stream cache on, fail -> swap
//                        -> online rebuild, lanes 1.
//   fig6-capacity        the Figure 6 admission-only grid, one thread.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (spans around every public call, plus the server's PhaseProfiler). The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}. A failed correctness check prints correct=false and exits 1.
// A per-layer metric a workload's layers do not produce is left out here;
// run.py fills it in as 0 and checks the set against BENCHMARK.json.

#include <cstdio>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) return 2;

  perfbench::RunResult result;
  if (options.workload == "paper-degraded") {
    result = perfbench::RunPaperDegraded(options);
  } else if (options.workload == "churn-cache-rebuild") {
    result = perfbench::RunChurnCacheRebuild(options);
  } else {
    result = perfbench::RunFig6Capacity(options);
  }

  for (const auto& [name, metric] : result.metrics) {
    std::printf("%-44s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
