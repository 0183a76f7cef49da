// ResNet shortcut mapping (paper §III.3): shows how a residual block's
// diag(lambda) normalization layer becomes its own row of cores whose
// partial sums join the block output's fold through the PS NoCs — "the
// first demonstration of a SNN hardware that can be configured
// automatically to run residual networks".
#include <cstdio>

#include "harness/pipeline.h"
#include "mapper/mapper.h"
#include "sim/engine.h"

using namespace sj;

int main() {
  auto cfg = harness::AppConfig::paper_default(harness::App::CifarResnet);
  if (!harness::fast_mode()) {
    cfg.train_samples = 1200;  // keep the example snappy
    cfg.test_samples = 120;
    cfg.epochs = 2;
    cfg.hw_frames = 2;
  }
  const harness::AppResult r = harness::run_app(cfg);

  std::printf("=== %s: residual block on Shenjing ===\n\n", r.name.c_str());
  // The block unit: one Conv edge + one Diag (shortcut) edge.
  for (usize u = 0; u < r.snn.units.size(); ++u) {
    const auto& unit = r.snn.units[u];
    if (unit.in.size() < 2) continue;
    std::printf("residual unit [%zu] %s:\n", u, unit.name.c_str());
    for (const auto& e : unit.in) {
      std::printf("  edge from unit %d: %s (%zu weights)\n", e.source,
                  snn::op_kind_name(e.op.kind), e.op.weights.size());
    }
  }

  // Count the normalization cores and their hold configuration.
  i64 norm = 0, held = 0;
  for (const auto& c : r.mapped.cores) {
    if (c.filler) continue;
    if (c.role.find("norm") != std::string::npos) {
      ++norm;
      if (c.spike_hold > 0) ++held;
    }
  }
  std::printf("\nnormalization cores: %lld (all hold inputs one extra timestep: %s)\n",
              static_cast<long long>(norm), norm == held ? "yes" : "NO");
  std::printf("unit pipeline depths: ");
  for (const i32 d : r.mapped.unit_depth) std::printf("%d ", d);
  std::printf("\n\n");

  std::printf("cores %lld (paper 5863)   chips %d (paper 8)   freq %.2f MHz (paper 2.83)\n",
              static_cast<long long>(r.cores), r.chips, r.freq_hz / 1e6);
  std::printf("power %.1f mW (paper 887.81)   accuracy ANN %.3f / SNN %.3f (paper "
              "0.7825 / 0.7250)\n",
              r.power.total_w * 1e3, r.ann_accuracy, r.snn_accuracy);
  std::printf("cycle simulator bit-exact vs abstract SNN: %s\n",
              r.hw_matches_abstract ? "yes" : "NO");
  return r.hw_matches_abstract ? 0 : 1;
}
