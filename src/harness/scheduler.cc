#include "src/harness/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

namespace odharness {

int RunExperiment(const Experiment& experiment, const RunOptions& options) {
  std::printf("=== %s: %s ===\n", experiment.name.c_str(),
              experiment.description.c_str());
  RunContext ctx(experiment.name, options);
  const auto start = std::chrono::steady_clock::now();
  int rc = experiment.run(ctx);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  ctx.artifact().exit_code = rc;
  std::printf("--- %s: rc=%d wall=%.0f ms", experiment.name.c_str(), rc,
              wall_ms);
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/" + experiment.name + ".json";
    if (ctx.artifact().WriteFile(path, options.compact_artifacts)) {
      std::printf(" artifact=%s", path.c_str());
    } else {
      std::fprintf(stderr, "odbench: could not write %s\n", path.c_str());
      rc = std::max(rc, 74);  // EX_IOERR: a missing artifact must fail CI.
    }
    // Auxiliary documents (power traces) land next to the scalar artifact
    // under the same atomic-write and must-exist-for-CI rules.
    for (const auto& [filename, document] : ctx.aux_documents()) {
      const std::string aux_path = options.out_dir + "/" + filename;
      if (WriteJsonFile(aux_path, document, options.compact_artifacts)) {
        std::printf(" %s", aux_path.c_str());
      } else {
        std::fprintf(stderr, "odbench: could not write %s\n",
                     aux_path.c_str());
        rc = std::max(rc, 74);
      }
    }
  }
  std::printf(" ---\n\n");
  return rc;
}

int RunExperiments(const std::vector<const Experiment*>& experiments,
                   const RunOptions& options) {
  int worst = 0;
  for (const Experiment* experiment : experiments) {
    worst = std::max(worst, RunExperiment(*experiment, options));
  }
  return worst;
}

}  // namespace odharness
