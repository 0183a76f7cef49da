// EXP-T3 — Table III: the four application networks.
//
// Prints each network's layer structure as built by the model zoo, next to
// the paper's listing, plus parameter counts and the converted-SNN unit
// inventory (documenting the (5,5,1,16)->(5,5,3,16) CIFAR Conv1 fix).
//
// A throughput section then maps the two MNIST networks (random weights —
// structure determines cost, training does not) and reports single-context
// frames/s next to batched frames/s over sim::Engine::run_batch, recorded to
// BENCH_table3_apps.json (ROADMAP "batch-aware benches"). SHENJING_FAST=1
// shrinks the timed runs; SHENJING_THREADS pins the batch worker count.
#include <span>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "harness/pipeline.h"
#include "harness/zoo.h"
#include "mapper/mapper.h"
#include "nn/dataset.h"
#include "sim/engine.h"
#include "snn/convert.h"

using namespace sj;

namespace {

void show(const nn::Model& m, const char* paper_listing) {
  std::printf("\n--- %s ---\n", m.name().c_str());
  std::printf("paper:  %s\n", paper_listing);
  std::printf("built:\n%s", m.summary().c_str());
}

struct Throughput {
  std::string name;
  double single_fps = 0.0;
  double batch_fps = 0.0;
  i64 cores = 0;
};

/// Single-context vs batched frames/s for one zoo model with random
/// weights, on synthetic digits (the bench_micro_sim fixture recipe).
Throughput measure(nn::Model m, i32 timesteps) {
  Rng rng(55);
  m.init_weights(rng);
  const nn::Dataset data = nn::make_synth_digits(8, {.seed = 12});
  snn::ConvertConfig cc;
  cc.timesteps = timesteps;
  const snn::SnnNetwork net = snn::convert(m, data, cc);
  const map::MappedNetwork mapped = map::map_network(net);

  const int min_frames = harness::fast_mode() ? 4 : 32;
  const double min_seconds = harness::fast_mode() ? 0.05 : 0.5;
  const usize threads = std::max<usize>(1, ThreadPool::global().num_threads());

  Throughput t;
  t.name = m.name();
  for (const auto& c : mapped.cores) t.cores += !c.filler;

  sim::Engine engine(mapped, net);
  const bench::SingleVsBatch fps = bench::measure_single_vs_batch(
      engine, {data.images.data(), data.images.size()}, min_frames, min_seconds, threads);
  t.single_fps = fps.single_fps;
  t.batch_fps = fps.batch_fps;
  return t;
}

}  // namespace

int main() {
  bench::heading("Table III — summary of applications",
                 "paper listings vs the structures built by harness::zoo");

  show(harness::make_mnist_mlp(), "Input(28,28,1) FC1(784,512) FC2(512,10)");
  show(harness::make_mnist_cnn(),
       "Input(28,28,1) Conv1(3,3,1,16) Pool1(2,2) Conv2(3,3,16,32) Pool2(2,2) "
       "FC1(1568,128) FC2(128,10)");
  show(harness::make_cifar_cnn(),
       "Input(24,24,3) Conv1(5,5,1,16)* Pool1(2,2) Conv2(5,5,16,32) Pool2(2,2) "
       "Conv3(3,3,32,64) Pool3(2,2) FC1(576,256) FC2(256,128) FC3(128,10)");
  show(harness::make_cifar_resnet(),
       "Input(24,24,3) Conv1(5,5,1,16)* Pool1(2,2) Res/Conv1(5,5,16,32) "
       "Res/Conv2(5,5,32,32) Res/Conv3(5,5,32,32) Pool2(2,2) Conv3(3,3,32,64) "
       "Pool3(2,2) FC1(576,256) FC2(256,128) FC3(128,10)");
  std::printf(
      "\n* the paper lists Conv1 depth 1 although the CIFAR input has 3 channels;\n"
      "  this build uses (5,5,3,16) — see DESIGN.md section 4.\n");

  // Engine throughput per app, single-context vs batched (the CIFAR
  // networks are skipped: minutes of conv simulation would drown the
  // structure listing this bench exists for; bench_table4_overall covers
  // them end to end).
  bench::heading("Table III apps — simulated throughput",
                 "single-context frames/s vs Engine::run_batch, random weights");
  const usize threads = std::max<usize>(1, ThreadPool::global().num_threads());
  std::vector<Throughput> rows;
  rows.push_back(measure(harness::make_mnist_mlp(), 20));
  rows.push_back(measure(harness::make_mnist_cnn(), 20));

  std::vector<std::vector<std::string>> t;
  t.push_back({"network", "cores", "single frames/s", "batched frames/s", "speedup"});
  json::Value doc;
  doc.set("threads", static_cast<i64>(threads));
  doc.set("fast_mode", harness::fast_mode());
  for (const Throughput& r : rows) {
    t.push_back({r.name, std::to_string(r.cores), bench::num(r.single_fps, 1),
                 bench::num(r.batch_fps, 1),
                 bench::num(r.single_fps > 0 ? r.batch_fps / r.single_fps : 0.0, 2) + "x"});
    json::Value app;
    app.set("cores", r.cores);
    app.set("frames_per_sec", r.single_fps);
    app.set("batch_frames_per_sec", r.batch_fps);
    doc.set(r.name, std::move(app));
  }
  bench::print_table(t);
  std::printf("(batched over %zu threads; SHENJING_THREADS pins the pool)\n", threads);
  bench::write_bench_json("table3_apps", std::move(doc));
  return 0;
}
