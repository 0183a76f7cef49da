// The benchmark's workloads. Each builds its inputs from Options::seed,
// runs for Options::seconds, checks every output and fills a Result: the
// end-to-end metrics without tracing, the per-layer metrics with it.
#pragma once

#include "common.h"

namespace pb {

Result run_mlp_batch(const Options& opt, const Pin& pin);
Result run_mlp_shard(const Options& opt, const Pin& pin);

/// The serving-tier probe of the traced mlp-batch run: sets the serve.*,
/// net.* and loadgen.* per-layer metrics, counts its requests into
/// r.attempted/r.failed and records request spans into `tr` while it is
/// enabled.
void probe_wire(const Options& opt, Tracer& tr, Result& r);

}  // namespace pb
