// The benchmark's workloads and module probes.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"

namespace perfbench {

/// Names accepted by --workload.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload for about `options.seconds` of measurement and fill
/// `report` with its end-to-end metrics (options.trace == false) or its
/// per-layer breakdown (options.trace == true). Throws on a harness
/// failure (a request future that never settles, an unknown workload).
void run_workload(const Options& options, Report& report);

/// Fixed-shape module probes, identical in every workload's traced run:
/// the serving MLP's fused forward (B=16, T=20) and the Table-I CNN's eval
/// forward (100 images) replayed layer by layer, one core::predict_fused_batch
/// call, and one tiled-backend batch. Spans go to `tracer`.
void run_probes(Report& report, neuspin::obs::Tracer& tracer);

}  // namespace perfbench
