// mlp-batch and mlp-shard: the engine workloads.
//
// Both build the Table-IV MNIST MLP with fixed weights, generate their input
// frames from the run's seed, take the abstract SNN's answer for every frame
// before timing starts, and then drive sim::Engine in a closed loop:
// mlp-batch pushes fixed-size batches through run_batch on a pool (paper
// arch, one chip); mlp-shard maps the MLP onto 2x2-tile chips so it spans
// three chip shards and runs one frame at a time through run_frame_sharded.
// Every engine frame must equal the abstract answer on predicted class,
// spike counts and final potentials.
#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "harness/zoo.h"
#include "mapper/mapper.h"
#include "mapper/opt/opt.h"
#include "nn/dataset.h"
#include "power/power.h"
#include "sim/engine.h"
#include "snn/convert.h"
#include "snn/evaluate.h"
#include "workloads.h"

namespace pb {
namespace {

using namespace sj;

enum class Drive { Batch, Sharded };

// Table IV of the paper, MLP column: the frame rate the energy figure
// assumes, and the paper's power and energy at that rate.
constexpr double kFps = 40.0;
constexpr double kPaperPowerMw = 1.35;
constexpr double kPaperEnergyUj = 38.0;
constexpr usize kDistinct = 256;  // distinct seeded input frames
// Set-ups take this share of every timed stretch, spread over kSlices
// slices that alternate with the ops, so setup_s is a median of a few
// hundred set-ups that saw the same host phases as the ops.
constexpr double kSetupShare = 0.1;
constexpr int kSlices = 8;

struct EngineSpec {
  Drive drive = Drive::Batch;
  // Chip edge in tiles; 0 keeps the paper's 28x28-tile chips. A smaller
  // chip makes the MLP straddle chips: the scaled-down stand-in for a
  // network big enough to need several.
  i32 chip_edge = 0;
  usize batch = 0;  // frames per run_batch call (Drive::Batch)
  // Pinned hardware figures of this fixture (0 = none pinned).
  u64 expect_cycles = 0;
  double expect_energy_uj = 0.0;
  // Runs the serving-tier probe in the traced run.
  bool wire_probe = false;
};

/// One set-up's products. The engine points into net/mapped, so a Built is
/// heap-held and never moved.
struct Built {
  snn::SnnNetwork net;
  map::MappedNetwork mapped;
  std::unique_ptr<sim::Engine> engine;
  double convert_s = 0.0, map_s = 0.0, compile_s = 0.0;
};

/// The statically known shape of a compiled model; every set-up of a run
/// must produce the same one.
struct Fingerprint {
  u32 cycles_per_timestep = 0;
  i32 ii = 0;
  u32 phases = 0;
  usize shards = 0;
  usize cores = 0;
  i32 chips = 0;
  double census_energy_j = 0.0;
  bool operator==(const Fingerprint&) const = default;
};

std::unique_ptr<Built> build(i32 chip_edge, const Pin& pin, Tracer& tr, u64 op) {
  Rng rng(55);
  nn::Model model = harness::make_mnist_mlp();
  model.init_weights(rng);
  const nn::Dataset calib = nn::make_synth_digits(8, {.seed = 12});
  snn::ConvertConfig cc;
  cc.timesteps = 20;
  map::MapperConfig cfg;
  cfg.opt_level = pin.opt_level;
  cfg.placement_evals = pin.placement_evals;
  cfg.pipeline = pin.pipeline;
  if (chip_edge > 0) {
    cfg.arch.chip_rows = chip_edge;
    cfg.arch.chip_cols = chip_edge;
  }

  auto b = std::make_unique<Built>();
  const Scoped root(tr, "setup", op);
  const u64 t0 = now_ns();
  {
    const Scoped s(tr, "snn.convert", op, root.id());
    b->net = snn::convert(model, calib, cc);
  }
  const u64 t1 = now_ns();
  {
    const Scoped s(tr, "mapper.map_network", op, root.id());
    b->mapped = map::map_network(b->net, cfg);
  }
  const u64 t2 = now_ns();
  {
    const Scoped s(tr, "sim.compile", op, root.id());
    b->engine = std::make_unique<sim::Engine>(b->mapped, b->net);
  }
  const u64 t3 = now_ns();
  b->convert_s = ms_between(t0, t1) / 1e3;
  b->map_s = ms_between(t1, t2) / 1e3;
  b->compile_s = ms_between(t2, t3) / 1e3;
  return b;
}

Fingerprint fingerprint(const Built& b) {
  const sim::CompiledModel& cm = b.engine->model();
  return {b.mapped.cycles_per_timestep,
          cm.pipeline().ii,
          cm.shard_plan().num_phases,
          cm.shard_plan().num_shards(),
          b.mapped.num_cores(),
          b.mapped.chips_used,
          power::estimate(b.mapped, kFps).energy_per_frame_j};
}

bool same(const sim::FrameResult& hw, const snn::EvalResult& ref) {
  return hw.predicted == ref.predicted && hw.spike_counts == ref.spike_counts &&
         hw.final_potentials == ref.final_potentials;
}

/// Runs call() back to back (at least once) for `seconds`, timing each call
/// under an "op" root span; check() runs after each call, outside the timed
/// window. Returns per-call ms.
template <typename Call, typename Check>
std::vector<double> timed_loop(double seconds, Tracer& tr, u64& next_op, Call&& call,
                               Check&& check) {
  std::vector<double> ms;
  const u64 t_end = now_ns() + static_cast<u64>(seconds * 1e9);
  do {
    const u64 id = next_op++;
    const u64 t0 = now_ns();
    const u64 root = tr.begin("op", id, 0);
    call(id, root);
    tr.end(root);
    ms.push_back(ms_between(t0, now_ns()));
    check(id);
  } while (now_ns() < t_end);
  return ms;
}

Result run_engine(const Options& opt, const Pin& pin, const EngineSpec& spec) {
  Result r;
  Tracer tr;
  if (opt.trace) tr.enable(1 << 16);
  u64 next_op = 1;

  // ---- The set-up the ops run on; more interleave with the ops. ----------
  std::vector<double> setup_s, convert_s, map_s, compile_s;
  Fingerprint first;
  const auto set_up = [&] {
    std::unique_ptr<Built> nb = build(spec.chip_edge, pin, tr, next_op++);
    convert_s.push_back(nb->convert_s);
    map_s.push_back(nb->map_s);
    compile_s.push_back(nb->compile_s);
    setup_s.push_back(nb->convert_s + nb->map_s + nb->compile_s);
    const Fingerprint fp = fingerprint(*nb);
    if (setup_s.size() == 1) {
      first = fp;
    } else if (!(fp == first)) {
      r.fail("set-up " + std::to_string(setup_s.size() - 1) +
             " compiled a different model than set-up 0");
    }
    return nb;
  };
  const std::unique_ptr<Built> b = set_up();
  sim::Engine& engine = *b->engine;
  const sim::CompiledModel& cm = engine.model();

  // ---- Inputs from the seed, reference answers outside the timed window. --
  const nn::Dataset in = nn::make_synth_digits(kDistinct, {.seed = opt.seed});
  const snn::AbstractEvaluator evaluator(b->net);
  const std::vector<snn::EvalResult> ref = evaluator.run_batch(in.images);

  // ---- Timed closed loop. --------------------------------------------------
  const usize frames_per_op = spec.drive == Drive::Batch ? spec.batch : 1;
  // The batch path fans one context per pool worker (the caller helps
  // drain); the sharded path runs the caller plus threads-1 helpers.
  ThreadPool pool(spec.drive == Drive::Batch ? pin.threads
                                             : std::max<usize>(1, pin.threads - 1));
  sim::SimContext ctx = engine.make_context();
  sim::SimStats total;
  u64 eff_per_frame = 0;  // the first frame's effective cycles; all must match
  std::vector<sim::FrameResult> out;
  sim::SimStats op_stats;

  const auto expect = [&](const sim::FrameResult& fr, usize f) {
    ++r.attempted;
    if (!same(fr, ref[f])) {
      ++r.failed;
      r.fail("frame " + std::to_string(f) + " differs from the abstract SNN");
    }
  };
  // Ops walk whole windows of the inputs: window k is [k, k+1) * frames_per_op.
  const usize windows = std::max<usize>(1, kDistinct / frames_per_op);
  const auto first_of = [&](u64 id) { return (id % windows) * frames_per_op; };
  const auto call = [&](u64 id, u64 root) {
    op_stats = {};
    if (spec.drive == Drive::Batch) {
      const Scoped s(tr, "sim.run_batch", id, root);
      out = engine.run_batch(std::span<const Tensor>(&in.images[first_of(id)], spec.batch),
                             &op_stats, &pool);
    } else {
      out.resize(1);
      {
        const Scoped s(tr, "sim.run_frame_sharded", id, root);
        out[0] = engine.run_frame_sharded(ctx, in.images[first_of(id)], nullptr, &pool);
      }
      op_stats = ctx.take_stats();
    }
  };
  const auto check = [&](u64 id) {
    const usize f0 = first_of(id);
    for (usize i = 0; i < out.size(); ++i) expect(out[i], f0 + i);
    if (op_stats.frames != static_cast<i64>(out.size())) {
      r.fail("engine stats counted " + std::to_string(op_stats.frames) + " frames");
    }
    const u64 eff = op_stats.effective_cycles / static_cast<u64>(std::max<i64>(1, op_stats.frames));
    if (eff_per_frame == 0) eff_per_frame = eff;
    if (eff != eff_per_frame || eff * static_cast<u64>(op_stats.frames) != op_stats.effective_cycles) {
      r.fail("effective cycles per frame drifted within the run");
    }
    total.merge(op_stats);
  };

  // Measures for `seconds` in kSlices slices, each a stretch of set-ups (at
  // least one) and then a stretch of ops. Returns per-op ms and each slice's
  // frames per second of op time; the set-ups add to the set-up samples.
  struct Measured {
    std::vector<double> ms, slice_fps;
  };
  const auto measure = [&](double seconds) {
    Measured m;
    const double slice = seconds / kSlices;
    for (int k = 0; k < kSlices; ++k) {
      const u64 t_end = now_ns() + static_cast<u64>(slice * kSetupShare * 1e9);
      do {
        (void)set_up();
      } while (now_ns() < t_end);
      const std::vector<double> part =
          timed_loop(slice * (1.0 - kSetupShare), tr, next_op, call, check);
      double part_ms = 0.0;
      for (const double t : part) part_ms += t;
      m.slice_fps.push_back(1e3 * static_cast<double>(frames_per_op * part.size()) / part_ms);
      m.ms.insert(m.ms.end(), part.begin(), part.end());
    }
    return m;
  };

  // Warm-up: pool threads, contexts and caches; verified, not timed.
  tr.disable();
  timed_loop(0.0, tr, next_op, call, check);
  timed_loop(0.0, tr, next_op, call, check);

  const double untraced_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const Measured untraced = measure(untraced_s);
  const std::vector<double>& op_ms = untraced.ms;

  // ---- Hardware figures of everything the timed run simulated. -----------
  const power::PowerReport rep =
      power::estimate_measured(b->mapped, kFps, total.noc, total.iterations);
  const double hw_cycles = static_cast<double>(total.effective_cycles) /
                           static_cast<double>(std::max<i64>(1, total.frames));
  const double hw_energy_uj = rep.energy_per_frame_j * 1e6;
  if (std::abs(rep.energy_per_frame_j - first.census_energy_j) >
      1e-12 * std::abs(first.census_energy_j)) {
    r.fail("measured energy differs from the static census");
  }
  if (spec.expect_cycles != 0 && static_cast<u64>(hw_cycles) != spec.expect_cycles) {
    r.fail("hw_frame_cycles " + num(hw_cycles) + " != pinned " +
           std::to_string(spec.expect_cycles));
  }
  if (spec.expect_energy_uj != 0.0 &&
      std::abs(hw_energy_uj - spec.expect_energy_uj) >= 0.005) {
    r.fail("hw_energy_uj " + num(hw_energy_uj) + " != pinned " + num(spec.expect_energy_uj));
  }

  const double op_p50 = median(op_ms);
  r.notes.push_back("{\"samples\": " + std::to_string(op_ms.size()) + ", \"frames_per_op\": " +
                    std::to_string(frames_per_op) + ", \"chips\": " +
                    std::to_string(b->mapped.chips_used) + ", \"shards\": " +
                    std::to_string(cm.shard_plan().num_shards()) + ", \"power_mw\": " +
                    num(rep.total_w * 1e3) + ", \"energy_uj_per_frame\": " + num(hw_energy_uj) +
                    ", \"fps\": " + num(kFps) + "}");
  // Ungated: the simulator is an unvalidated model of the paper's chip, so
  // this is the model's error against the paper, not a measurement error.
  r.notes.push_back(
      "{\"paper_table_iv\": {\"power_mw\": " + num(kPaperPowerMw) +
      ", \"energy_uj_per_frame\": " + num(kPaperEnergyUj) + ", \"fps\": " + num(kFps) +
      "}, \"unvalidated_model_error_pct\": {\"power\": " +
      num((rep.total_w * 1e3 / kPaperPowerMw - 1.0) * 100.0) +
      ", \"energy\": " + num((hw_energy_uj / kPaperEnergyUj - 1.0) * 100.0) + "}}");

  if (!opt.trace) {
    r.set("setup_s", median(setup_s), "s");
    // Each slice's frames over its summed op time, so straggler ops count,
    // where the latency is the median op alone; the median slice, so a slow
    // host phase in a few slices does not.
    r.set("frames_per_s", median(untraced.slice_fps), "1/s");
    r.set("latency_p50_ms", op_p50, "ms");
    r.set("hw_frame_cycles", hw_cycles, "cycles");
    r.set("hw_energy_uj", hw_energy_uj, "uJ");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  // ---- Traced run: the same loop with spans, then per-layer probes. -------
  tr.enable(1 << 16);
  const std::vector<double> traced_ms = measure(opt.seconds / 2.0).ms;
  if (spec.wire_probe) probe_wire(opt, tr, r);
  // The engine's own roots are each one library call, so their residual is
  // near 0 unless the spans miss a call; the wire requests' residual is the
  // round trip that neither the generator, the send nor the server explains.
  const double residual = tr.residual_pct({"op", "setup"});
  const double wire_residual = tr.residual_pct({"wire.request"});
  if (!tr.write(opt.out_dir + "/" + opt.workload + "-" + std::to_string(opt.seed) + ".jsonl")) {
    std::fprintf(stderr, "perfbench: could not write the span dump to %s\n", opt.out_dir.c_str());
  }
  tr.disable();

  // Single context on the caller thread: the per-frame engine cost.
  std::vector<double> single_ms;
  sim::SimStats single_stats;
  {
    sim::SimContext sctx = engine.make_context();
    const u64 t_end = now_ns() + 1'000'000'000ull;
    usize i = 0;
    do {
      const u64 t0 = now_ns();
      const sim::FrameResult fr = engine.run_frame(sctx, in.images[i % kDistinct]);
      single_ms.push_back(ms_between(t0, now_ns()));
      expect(fr, i % kDistinct);
      ++i;
    } while (i < 5 || now_ns() < t_end);
    single_stats = sctx.take_stats();
  }
  const double frame_p50 = median(single_ms);
  const double sim_cycles_per_frame = static_cast<double>(single_stats.cycles) /
                                      static_cast<double>(std::max<i64>(1, single_stats.frames));

  // The other drive, probed briefly, so both speedups exist on both nets.
  std::vector<double> batch_ms;
  usize batch_frames = spec.batch;
  std::vector<double> sharded_ms;
  if (spec.drive == Drive::Batch) {
    batch_ms = op_ms;
    ThreadPool helpers(std::max<usize>(1, pin.threads - 1));
    const u64 t_end = now_ns() + 500'000'000ull;
    usize i = 0;
    do {
      const u64 t0 = now_ns();
      const sim::FrameResult fr =
          engine.run_frame_sharded(ctx, in.images[i % kDistinct], nullptr, &helpers);
      sharded_ms.push_back(ms_between(t0, now_ns()));
      expect(fr, i % kDistinct);
      ++i;
    } while (i < 5 || now_ns() < t_end);
    (void)ctx.take_stats();
  } else {
    sharded_ms = op_ms;
    batch_frames = pin.threads;
    ThreadPool workers(pin.threads);
    const u64 t_end = now_ns() + 1'000'000'000ull;
    usize i = 0;
    do {
      const usize f0 = std::min(i * batch_frames % kDistinct, kDistinct - batch_frames);
      const u64 t0 = now_ns();
      const std::vector<sim::FrameResult> frs =
          engine.run_batch(std::span<const Tensor>(&in.images[f0], batch_frames), nullptr, &workers);
      batch_ms.push_back(ms_between(t0, now_ns()));
      for (usize k = 0; k < frs.size(); ++k) expect(frs[k], f0 + k);
      ++i;
    } while (i < 3 || now_ns() < t_end);
  }
  const double batch_speedup =
      frame_p50 * static_cast<double>(batch_frames) / median(batch_ms);

  double placement_ms = 0.0;
  for (const map::OptPassStat& p : b->mapped.opt_passes) {
    if (p.pass == "placement") placement_ms += p.wall_ms;
  }

  r.set("snn.convert_s", median(convert_s), "s");
  r.set("mapper.map_s", median(map_s), "s");
  r.set("mapper.placement_search_ms", placement_ms, "ms");
  r.set("mapper.cycles_per_timestep", b->mapped.cycles_per_timestep, "cycles");
  r.set("mapper.pipeline_ii", cm.pipeline().ii, "cycles");
  r.set("mapper.cross_chip_crossings",
        static_cast<double>(map::opt::measure(b->mapped).cross_chip_crossings), "count");
  r.set("mapper.shard_phases", cm.shard_plan().num_phases, "count");
  r.set("sim.compile_s", median(compile_s), "s");
  r.set("sim.frame_ms_p50", frame_p50, "ms");
  r.set("sim.host_ns_per_sim_cycle", frame_p50 * 1e6 / sim_cycles_per_frame, "ns");
  r.set("sim.batch_speedup", batch_speedup, "x");
  r.set("sim.batch_efficiency", batch_speedup / static_cast<double>(pin.threads), "ratio");
  r.set("sim.batch_ms_p90", quantile(batch_ms, 0.90), "ms");
  r.set("sim.shard_speedup", frame_p50 / median(sharded_ms), "x");
  r.set("noc.interchip_bits_per_frame",
        static_cast<double>(total.interchip_ps_bits() + total.interchip_spike_bits()) /
            static_cast<double>(std::max<i64>(1, total.frames)),
        "bits");
  r.set("power.dynamic_uj", rep.dynamic_w / kFps * 1e6, "uJ");
  r.set("e2e.latency_p90_ms", quantile(op_ms, 0.90), "ms");
  r.set("e2e.latency_p99_ms", quantile(op_ms, 0.99), "ms");
  r.set("trace.residual_pct", residual, "%");
  r.set("trace.wire_residual_pct", wire_residual, "%");
  r.set("trace.overhead_pct", (median(traced_ms) / op_p50 - 1.0) * 100.0, "%");
  return r;
}

}  // namespace

Result run_mlp_batch(const Options& opt, const Pin& pin) {
  EngineSpec spec;
  spec.drive = Drive::Batch;
  spec.batch = 16 * pin.threads;
  // The bench_micro_sim MLP fixture (paper arch, opt level 1, pipelined).
  spec.expect_cycles = 2116;
  spec.expect_energy_uj = 25.81;
  spec.wire_probe = true;
  return run_engine(opt, pin, spec);
}

Result run_mlp_shard(const Options& opt, const Pin& pin) {
  EngineSpec spec;
  spec.drive = Drive::Sharded;
  spec.chip_edge = 2;
  return run_engine(opt, pin, spec);
}

}  // namespace pb
