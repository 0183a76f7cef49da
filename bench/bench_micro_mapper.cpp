// EXP-M1 — mapper throughput and mapping-time optimizer deltas.
//
// The paper's Table IV reports toolchain mapping times of 660 ms (MLP) to
// 12022 ms (ResNet) on an i7-8550U. This bench times our map_network() on
// the same recipes AND measures what the mapping-time optimizer
// (src/mapper/opt) buys over the greedy schedule: cycles per timestep,
// cross-chip plane-crossings and shard phases at SHENJING_OPT=0
// (greedy) versus 2 (schedule passes + placement search), plus per-pass
// wall time.
//
// Fixtures and gated metrics:
//   - MNIST MLP on the paper arch: the single-chip workload. Its cycle
//     count has an architectural floor — acc_cycles = 131 RAW latency
//     behind the accumulate window dominates the 144-cycle timetable — so
//     only ~2% is recoverable; reported for honesty, not gated.
//   - MNIST MLP on 2x2-tile chips (the repository benchmark's mlp-shard net):
//     every hop is potentially cross-chip, so this is where placement
//     search shows up. Gated: cross_chip_crossings (lower is better).
//   - MNIST CNN: the multi-unit pipeline with real slack between waves —
//     placement search finds layouts with far fewer filler/bypass hops, and
//     repack compacts the shorter wave chains. Gated: cycles_per_timestep
//     (lower is better), and cnn_pipeline_ii, the engine's initiation
//     interval at opt level 1, held exactly (a return to the serial
//     II = cycles_per_timestep would fit inside the default 20 %).
//
// Toolchain wall time, gated with a loose ceiling (host speed drifts):
//   - setup_ms_mlp: convert + map_network + sim::Engine on the MNIST MLP at
//     opt level 1, the median of 25 set-ups — what a model load costs;
//   - compile_ms_cnn: map_network + sim::Engine on the MNIST CNN at opt
//     level 1, the median of 3 — mostly the engine's II search.
//
// The placement budget is pinned (not SHENJING_FAST-scaled) so the JSON is
// deterministic and comparable against the committed baseline.
#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.h"
#include "common/status.h"
#include "harness/zoo.h"
#include "mapper/mapper.h"
#include "mapper/opt/opt.h"
#include "mapper/pipeline.h"
#include "nn/dataset.h"
#include "sim/engine.h"
#include "snn/convert.h"

using namespace sj;

namespace {

/// A model with its calibration set, ready to convert.
struct Fixture {
  nn::Model model;
  nn::Dataset calib;
  snn::ConvertConfig cc;

  snn::SnnNetwork convert() const { return snn::convert(model, calib, cc); }
};

Fixture build_fixture(int which) {
  Rng rng(static_cast<u64>(which) + 77);
  nn::Model m = which == 0   ? harness::make_mnist_mlp()
                : which == 1 ? harness::make_mnist_cnn()
                : which == 2 ? harness::make_cifar_cnn()
                             : harness::make_cifar_resnet();
  m.init_weights(rng);
  nn::Dataset calib;
  calib.sample_shape = m.input_shape();
  calib.num_classes = 10;
  for (int i = 0; i < 8; ++i) {
    Tensor x(m.input_shape());
    x.fill_uniform(rng, 0.0f, 1.0f);
    calib.images.push_back(std::move(x));
    calib.labels.push_back(0);
  }
  snn::ConvertConfig cc;
  cc.timesteps = which < 2 ? 20 : 80;
  return Fixture{std::move(m), std::move(calib), cc};
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median wall time of `reps` toolchain runs: convert (when `with_convert`),
/// map_network and the sim::Engine constructor.
double toolchain_ms(const Fixture& f, const map::MapperConfig& cfg, bool with_convert,
                    int reps) {
  const snn::SnnNetwork converted = f.convert();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    snn::SnnNetwork own;
    if (with_convert) own = f.convert();
    const snn::SnnNetwork& net = with_convert ? own : converted;
    const map::MappedNetwork mapped = map::map_network(net, cfg);
    const sim::Engine engine(mapped, net);
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

struct MapRun {
  map::opt::ProgramMetrics metrics;
  double map_ms = 0.0;
  std::vector<map::OptPassStat> passes;
};

MapRun run_map(const snn::SnnNetwork& net, map::MapperConfig cfg, i32 level) {
  cfg.opt_level = level;
  MapRun r;
  const auto t0 = std::chrono::steady_clock::now();
  const map::MappedNetwork mapped = map::map_network(net, cfg);
  r.map_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  r.metrics = map::opt::measure(mapped);
  r.passes = mapped.opt_passes;
  return r;
}

double reduction_pct(double before, double after) {
  return before > 0.0 ? (before - after) / before * 100.0 : 0.0;
}

void print_fixture(const std::string& name, const MapRun& greedy, const MapRun& opt) {
  std::printf("\n%s\n", name.c_str());
  bench::print_table({
      {"", "cycles/ts", "ops", "sends", "crossings", "phases", "map ms"},
      {"greedy (O0)", bench::num(greedy.metrics.cycles_per_timestep, 0),
       bench::num(static_cast<double>(greedy.metrics.ops), 0),
       bench::num(static_cast<double>(greedy.metrics.sends), 0),
       bench::num(static_cast<double>(greedy.metrics.cross_chip_crossings), 0),
       bench::num(greedy.metrics.shard_phases, 0), bench::num(greedy.map_ms, 1)},
      {"optimized (O2)", bench::num(opt.metrics.cycles_per_timestep, 0),
       bench::num(static_cast<double>(opt.metrics.ops), 0),
       bench::num(static_cast<double>(opt.metrics.sends), 0),
       bench::num(static_cast<double>(opt.metrics.cross_chip_crossings), 0),
       bench::num(opt.metrics.shard_phases, 0), bench::num(opt.map_ms, 1)},
  });
  std::printf("  cycles -%.1f%%, crossings -%.1f%%, phases -%.1f%%\n",
              reduction_pct(greedy.metrics.cycles_per_timestep,
                            opt.metrics.cycles_per_timestep),
              reduction_pct(static_cast<double>(greedy.metrics.cross_chip_crossings),
                            static_cast<double>(opt.metrics.cross_chip_crossings)),
              reduction_pct(greedy.metrics.shard_phases, opt.metrics.shard_phases));
  for (const map::OptPassStat& p : opt.passes) {
    std::printf("  pass %-10s %7.1f ms  cycles %u -> %u  ops %lld -> %lld  "
                "crossings %lld -> %lld  phases %u -> %u\n",
                p.pass.c_str(), p.wall_ms, p.cycles_before, p.cycles_after,
                static_cast<long long>(p.ops_before),
                static_cast<long long>(p.ops_after),
                static_cast<long long>(p.crossings_before),
                static_cast<long long>(p.crossings_after), p.phases_before,
                p.phases_after);
  }
}

}  // namespace

int main() {
  bench::heading("EXP-M1: mapper throughput + mapping-time optimizer",
                 "map_network at SHENJING_OPT=0 (greedy) vs 2 (passes + placement)");

  // Pinned placement budgets: results must not depend on SHENJING_FAST or
  // host speed, or the committed baseline would be meaningless.
  map::MapperConfig mlp_cfg;
  mlp_cfg.placement_evals = 48;

  map::MapperConfig sharded_cfg = mlp_cfg;
  sharded_cfg.arch.chip_rows = 2;
  sharded_cfg.arch.chip_cols = 2;

  map::MapperConfig cnn_cfg;
  cnn_cfg.placement_evals = 48;

  const Fixture mlp_fixture = build_fixture(0);
  const Fixture cnn_fixture = build_fixture(1);
  const snn::SnnNetwork mlp = mlp_fixture.convert();
  const snn::SnnNetwork cnn = cnn_fixture.convert();

  const MapRun mlp_o0 = run_map(mlp, mlp_cfg, 0);
  const MapRun mlp_o2 = run_map(mlp, mlp_cfg, 2);
  print_fixture("MNIST MLP, paper arch (acc_cycles=131 floors the timetable)",
                mlp_o0, mlp_o2);

  const MapRun sh_o0 = run_map(mlp, sharded_cfg, 0);
  const MapRun sh_o2 = run_map(mlp, sharded_cfg, 2);
  print_fixture("MNIST MLP, 2x2-tile chips (cross-chip fixture)", sh_o0, sh_o2);

  const MapRun cnn_o0 = run_map(cnn, cnn_cfg, 0);
  const MapRun cnn_o2 = run_map(cnn, cnn_cfg, 2);
  print_fixture("MNIST CNN, paper arch (pipeline fixture)", cnn_o0, cnn_o2);

  map::MapperConfig o1_cfg;
  o1_cfg.opt_level = 1;
  const double setup_ms_mlp = toolchain_ms(mlp_fixture, o1_cfg, /*with_convert=*/true, 25);
  const double compile_ms_cnn = toolchain_ms(cnn_fixture, o1_cfg, /*with_convert=*/false, 3);
  const map::MappedNetwork cnn_o1 = map::map_network(cnn, o1_cfg);
  const map::PipelineSchedule cnn_pipe = map::build_pipeline(cnn_o1);
  std::printf("\nToolchain wall time at opt level 1\n");
  bench::print_table({
      {"", "ms"},
      {"MLP convert + map + Engine (median of 25)", bench::num(setup_ms_mlp, 2)},
      {"CNN map + Engine (median of 3)", bench::num(compile_ms_cnn, 1)},
  });
  std::printf("MNIST CNN at opt level 1: II %d of %u cycles per timestep (%s)\n", cnn_pipe.ii,
              cnn_o1.cycles_per_timestep, map::serial_reason_name(cnn_pipe.serial_reason));

  json::Value doc;
  // Gated metrics (tools/check_bench.py --lower-metrics): the optimizer's
  // headline wins, deterministic by construction.
  doc.set("cycles_per_timestep", static_cast<i64>(cnn_o2.metrics.cycles_per_timestep));
  doc.set("cross_chip_crossings", sh_o2.metrics.cross_chip_crossings);
  // Greedy counterparts + reductions, for the human reading the artifact.
  doc.set("greedy_cycles_per_timestep",
          static_cast<i64>(cnn_o0.metrics.cycles_per_timestep));
  doc.set("greedy_cross_chip_crossings", sh_o0.metrics.cross_chip_crossings);
  doc.set("cycles_reduction_pct",
          reduction_pct(cnn_o0.metrics.cycles_per_timestep,
                        cnn_o2.metrics.cycles_per_timestep));
  doc.set("crossings_reduction_pct",
          reduction_pct(static_cast<double>(sh_o0.metrics.cross_chip_crossings),
                        static_cast<double>(sh_o2.metrics.cross_chip_crossings)));
  doc.set("shard_phases", static_cast<i64>(sh_o2.metrics.shard_phases));
  doc.set("greedy_shard_phases", static_cast<i64>(sh_o0.metrics.shard_phases));
  doc.set("mlp_cycles_per_timestep",
          static_cast<i64>(mlp_o2.metrics.cycles_per_timestep));
  doc.set("greedy_mlp_cycles_per_timestep",
          static_cast<i64>(mlp_o0.metrics.cycles_per_timestep));
  doc.set("map_ms_mlp_o0", mlp_o0.map_ms);
  doc.set("map_ms_mlp_o2", mlp_o2.map_ms);
  doc.set("map_ms_cnn_o0", cnn_o0.map_ms);
  doc.set("map_ms_cnn_o2", cnn_o2.map_ms);
  doc.set("setup_ms_mlp", setup_ms_mlp);
  doc.set("compile_ms_cnn", compile_ms_cnn);
  doc.set("cnn_pipeline_ii", static_cast<i64>(cnn_pipe.ii));
  for (const map::OptPassStat& p : cnn_o2.passes) {
    doc.set("pass_" + p.pass + "_ms", p.wall_ms);
  }
  doc.set("opt_level", static_cast<i64>(2));  // the measured configuration
  bench::write_bench_json("mapper", doc);

  // The acceptance claims this bench exists to defend; fail loudly in CI's
  // bench-smoke step if the optimizer stops earning them.
  SJ_REQUIRE(cnn_o2.metrics.cycles_per_timestep * 10 <=
                 cnn_o0.metrics.cycles_per_timestep * 9,
             "optimizer lost the >=10% CNN cycle reduction");
  SJ_REQUIRE(sh_o2.metrics.cross_chip_crossings < sh_o0.metrics.cross_chip_crossings,
             "placement search no longer reduces cross-chip crossings");
  SJ_REQUIRE(cnn_pipe.serial_reason == map::SerialReason::None,
             "the MNIST CNN no longer overlaps timesteps");
  return 0;
}
