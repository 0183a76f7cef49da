// End-to-end experiment pipeline: train (or load cached) ANN -> convert to
// SNN -> map onto Shenjing -> verify hardware equivalence -> estimate power.
//
// This is the glue the benches and examples share; every Table IV column
// comes out of AppResult. Trained weights are cached on disk keyed by
// (app, seed) so repeated bench runs skip training.
#pragma once

#include <optional>
#include <string>

#include "mapper/mapper.h"
#include "nn/dataset.h"
#include "nn/model.h"
#include "nn/train.h"
#include "power/power.h"
#include "sim/engine.h"
#include "snn/convert.h"
#include "snn/evaluate.h"

namespace sj::harness {

enum class App : u8 { MnistMlp, MnistCnn, CifarCnn, CifarResnet };

const char* app_name(App a);

/// Everything needed to reproduce one Table IV column.
struct AppConfig {
  App app = App::MnistMlp;
  // SNN / hardware.
  i32 timesteps = 20;      // Table IV: 20 for MNIST, 80 for CIFAR
  double target_fps = 40;  // Table IV: 40 for MLP, 30 otherwise
  // Training (synthetic datasets; see DESIGN.md §6).
  usize train_samples = 3000;
  usize test_samples = 1000;
  usize epochs = 4;
  u64 seed = 1;
  // How many frames to push through the cycle-accurate simulator for the
  // hardware-equivalence check (abstract accuracy covers the full test set).
  usize hw_frames = 8;
  bool use_cache = true;
  std::string cache_dir = ".modelcache";

  /// Paper-equivalent defaults per app (sized to run in seconds/minutes).
  static AppConfig paper_default(App a);
  /// Reduced sizes for CI / SHENJING_FAST=1.
  void shrink();
};

struct AppResult {
  std::string name;
  // Accuracy (Table IV rows 1-3).
  double ann_accuracy = 0.0;
  double snn_accuracy = 0.0;       // abstract SNN, full test set
  double shenjing_accuracy = 0.0;  // cycle simulator, hw_frames frames
  bool hw_matches_abstract = false;  // per-frame prediction equality
  usize hw_frames = 0;
  // Hardware (Table IV rows 4-10).
  i64 cores = 0;
  i32 chips = 0;
  i32 timesteps = 0;
  double fps = 0.0;
  double freq_hz = 0.0;
  power::PowerReport power;
  double mapping_ms = 0.0;
  u32 cycles_per_timestep = 0;
  double switching_activity = 0.0;
  i64 saturations = 0;
  double train_seconds = 0.0;
  /// Stats of the hw_frames cycle-accurate verification run, including the
  /// per-link NoC traffic counters the power estimate was derived from.
  sim::SimStats sim_stats;
  // Handles for further experiments.
  snn::SnnNetwork snn;
  map::MappedNetwork mapped;
  nn::Model ann;
  nn::Dataset test_set;

  AppResult() : ann({1}, "empty") {}
};

/// Builds the datasets for an app (deterministic in cfg.seed).
nn::Dataset train_set_for(const AppConfig& cfg);
nn::Dataset test_set_for(const AppConfig& cfg);

/// Trains (or loads) the ANN for an app.
nn::Model trained_ann(const AppConfig& cfg, double* train_seconds = nullptr,
                      double* ann_accuracy = nullptr, nn::Dataset* test_out = nullptr);

/// Runs the full pipeline.
AppResult run_app(const AppConfig& cfg);

/// True when SHENJING_FAST=1 is set (benches shrink their workloads).
bool fast_mode();

}  // namespace sj::harness
