// neuspin_perfbench: run one named workload of the repository benchmark.
//
//   neuspin_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--out-dir DIR] [--replay-seed-offset K]
//
// Prints its log, a host/build metadata line, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer breakdown with --trace 1. Exit
// status: 0 correct, 1 a correctness check failed, 2 bad usage or a
// non-Release build, 3 the run aborted (no result line).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "neuspin_perfbench: %s\n"
               "usage: neuspin_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--replay-seed-offset K]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--replay-seed-offset") {
      options.replay_seed_offset = std::strtoull(value, nullptr, 10);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == options.workload;
  }
  if (!known) {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!(options.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  if (!perfbench::release_build()) {
    return usage("refusing to report numbers from a non-Release build");
  }

  perfbench::Report report;
  try {
    perfbench::run_workload(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neuspin_perfbench: aborted: %s\n", e.what());
    return 3;
  }
  report.print_detail();
  std::printf("%s\n", perfbench::host_metadata_json().c_str());
  std::printf("%s\n", report.result_json().c_str());
  return report.correct() ? 0 : 1;
}
