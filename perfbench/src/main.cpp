// perfbench: the repository benchmark.
//
//   perfbench --workload <mlp-batch|mlp-shard> --seed N
//             --seconds S --trace <0|1> [--out DIR]
//
// Each workload pins its engine configuration (environment variables the
// library reads once, and the mapper settings) before any library code
// runs, builds its inputs from the seed, measures for S seconds and checks
// every output. Provenance lines go to stdout first; the last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set from a separate traced run (spans dumped under --out).
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "workloads.h"

namespace {

using namespace pb;

struct Workload {
  const char* name;
  Pin pin;
  Result (*run)(const Options&, const Pin&);
};

// Busy threads per workload stay at or below 4: mlp-batch runs the caller
// plus three pool workers (its serving probe: the generator, the event loop
// and two serve workers), mlp-shard the caller plus two shard helpers, one
// thread per chip shard.
Workload kWorkloads[] = {
    {"mlp-batch", {.opt_level = 1, .pipeline = 1, .placement_evals = 48, .threads = 4}, run_mlp_batch},
    {"mlp-shard", {.opt_level = 2, .pipeline = 1, .placement_evals = 48, .threads = 3}, run_mlp_shard},
};

struct MetricName {
  const char* name;
  const char* unit;
};

// The per-layer set. A run prints all of them; a layer its workload does
// not exercise reads 0.
constexpr MetricName kPerLayer[] = {
    {"snn.convert_s", "s"},
    {"mapper.map_s", "s"},
    {"mapper.placement_search_ms", "ms"},
    {"mapper.cycles_per_timestep", "cycles"},
    {"mapper.pipeline_ii", "cycles"},
    {"mapper.cross_chip_crossings", "count"},
    {"mapper.shard_phases", "count"},
    {"sim.compile_s", "s"},
    {"sim.frame_ms_p50", "ms"},
    {"sim.host_ns_per_sim_cycle", "ns"},
    {"sim.batch_speedup", "x"},
    {"sim.batch_efficiency", "ratio"},
    {"sim.batch_ms_p90", "ms"},
    {"sim.shard_speedup", "x"},
    {"noc.interchip_bits_per_frame", "bits"},
    {"power.dynamic_uj", "uJ"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.exec_p50_ms", "ms"},
    {"serve.exec_p99_ms", "ms"},
    {"net.round_trip_p50_ms", "ms"},
    {"net.round_trip_p99_ms", "ms"},
    {"net.capacity_rps", "1/s"},
    {"net.overhead_p50_ms", "ms"},
    {"net.overhead_p99_ms", "ms"},
    {"net.ping_rtt_p50_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"e2e.latency_p90_ms", "ms"},
    {"e2e.latency_p99_ms", "ms"},
    {"trace.residual_pct", "%"},
    {"trace.wire_residual_pct", "%"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <mlp-batch|mlp-shard> "
               "--seed N --seconds S --trace <0|1> [--out DIR]\n",
               why);
  return 2;
}

void pin_env(const char* name, const std::string& value) {
  ::setenv(name, value.c_str(), 1);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--out") {
      opt.out_dir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) return usage("--seconds out of range");

  Workload* w = nullptr;
  for (Workload& cand : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage(("unknown workload " + opt.workload).c_str());

  // Pin before the library reads any of these (each is read once, cached).
  Pin pin = w->pin;
  const sj::usize cores = sj::hardware_thread_count();
  pin.threads = std::min(pin.threads, cores);
  // SHENJING_SIMD: the best backend this CPU runs, named explicitly.
  const std::string simd = sj::simd::backend_name(sj::simd::best_backend());
  pin_env("SHENJING_OPT", std::to_string(pin.opt_level));
  pin_env("SHENJING_PIPELINE", std::to_string(pin.pipeline));
  pin_env("SHENJING_SIMD", simd);
  pin_env("SHENJING_THREADS", std::to_string(pin.threads));
  pin_env("SHENJING_SPIN", std::to_string(pin.spin));
  pin_env("SHENJING_FAST", "0");
  ::unsetenv("SHENJING_OPT_PASSES");
  ::unsetenv("SHENJING_SERVE");
  ::unsetenv("SHENJING_METRICS");
  if (opt.trace) ::mkdir(opt.out_dir.c_str(), 0755);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"host_cores\": %zu, \"simd_backend\": \"%s\", \"threads\": %zu, "
              "\"opt_level\": %d, \"pipeline\": %d, \"placement_evals\": %d, \"spin\": %d}\n",
              w->name, static_cast<unsigned long long>(opt.seed), num(opt.seconds).c_str(),
              opt.trace ? 1 : 0, cores, simd.c_str(), pin.threads, pin.opt_level,
              pin.pipeline, pin.placement_evals, pin.spin);
  std::fflush(stdout);

  Result r;
  try {
    r = w->run(opt, pin);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", w->name, e.what());
    return 1;
  }
  if (sj::simd::backend_name(sj::simd::active_backend()) != simd) {
    r.fail("SIMD backend " + std::string(sj::simd::backend_name(sj::simd::active_backend())) +
           " ran instead of the pinned " + simd);
  }
  if (opt.trace) {
    for (const MetricName& m : kPerLayer) {
      bool present = false;
      for (const Metric& have : r.metrics) present = present || have.name == m.name;
      if (!present) r.set(m.name, 0.0, m.unit);
    }
  }

  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (usize i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
