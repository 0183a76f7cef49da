// EXP-A2 — ablation: datapath bit widths vs saturation and accuracy.
//
// §II argues 16-bit PS NoC links suffice: "Having a 16 bit width allows us
// to sum up 2^11 5-bit weights at the worst case ... We did not encounter
// any overflow in our applications." This bench sweeps the local-PS/NoC
// widths on the MNIST-MLP, counting hardware adder saturations in the cycle
// simulator and the induced prediction changes, confirming zero overflow at
// the paper's widths and quantifying the cliff below them.
#include "bench_util.h"
#include "harness/pipeline.h"
#include "sim/engine.h"
#include "snn/evaluate.h"

using namespace sj;

int main() {
  bench::heading("EXP-A2 — NoC/local-PS bit width vs overflow (MNIST-MLP)",
                 "paper claim: no overflow at 13-bit local PS / 16-bit NoC");

  harness::AppConfig cfg = harness::AppConfig::paper_default(harness::App::MnistMlp);
  cfg.hw_frames = 0;
  double ann = 0.0;
  nn::Dataset test;
  nn::Model model = harness::trained_ann(cfg, nullptr, &ann, &test);
  const nn::Dataset calib = harness::train_set_for(cfg);
  snn::ConvertConfig cc;
  cc.timesteps = cfg.timesteps;
  const snn::SnnNetwork net = snn::convert(model, calib, cc);

  const usize frames = harness::fast_mode() ? 8 : 32;
  const snn::AbstractEvaluator ref(net);
  std::vector<i32> ref_pred;
  for (usize i = 0; i < frames; ++i) {
    ref_pred.push_back(ref.run(test.images[i]).predicted);
  }

  struct Widths {
    i32 local_ps, noc;
  };
  const Widths sweep[] = {{13, 16}, {12, 14}, {11, 13}, {10, 12}, {9, 11}, {8, 10}};

  std::vector<std::vector<std::string>> t;
  t.push_back({"local PS bits", "NoC bits", "adder saturations/frame",
               "predictions changed", "note"});
  for (const auto& w : sweep) {
    map::MapperConfig mc;
    mc.arch.local_ps_bits = w.local_ps;
    mc.arch.noc_bits = w.noc;
    const map::MappedNetwork mapped = map::map_network(net, mc);
    const sim::Engine engine(mapped, net);
    sim::SimContext ctx = engine.make_context();
    int changed = 0;
    for (usize i = 0; i < frames; ++i) {
      const sim::FrameResult r = engine.run_frame(ctx, test.images[i]);
      if (r.predicted != ref_pred[i]) ++changed;
    }
    const sim::SimStats st = ctx.take_stats();
    t.push_back({std::to_string(w.local_ps), std::to_string(w.noc),
                 bench::num(static_cast<double>(st.saturations) /
                                static_cast<double>(frames), 1),
                 strprintf("%d / %zu", changed, frames),
                 w.local_ps == 13 ? "paper configuration" : ""});
  }
  bench::print_table(t);
  return 0;
}
