#include "snn/convert.h"

#include <array>
#include <cmath>

#include "common/fixed.h"
#include "common/log.h"
#include "common/thread_pool.h"

namespace sj::snn {

namespace {

using nn::LayerKind;
using nn::Model;
using nn::NodeId;

/// Float-weighted edge under construction.
struct FloatEdge {
  i32 source = -1;  // unit index or -1 = input
  OpKind kind = OpKind::Dense;
  std::vector<float> weights;
  i64 in_size = 0, out_size = 0;
  i32 in_h = 0, in_w = 0, in_c = 0, kernel = 0, out_c = 0, win = 0;
};

/// Unit under construction (pre-quantization).
struct FloatUnit {
  std::string name;
  i64 size = 0;
  Shape out_shape;
  std::vector<FloatEdge> edges;
  double lambda = 1.0;
  bool finalized = false;  // has seen its ReLU (or is the output)
};

/// Per-node maximum activation over the calibration set.
std::vector<float> activation_maxima(const Model& model, const nn::Dataset& calib,
                                     usize n_samples) {
  const usize n = std::min(n_samples, calib.size());
  SJ_REQUIRE(n > 0, "conversion needs a non-empty calibration set");
  ThreadPool& pool = ThreadPool::global();
  const usize shards = std::min<usize>(n, std::max<usize>(1, pool.num_threads()));
  std::vector<std::vector<float>> shard_max(
      shards, std::vector<float>(model.num_layers() + 1, 0.0f));
  pool.parallel_for(shards, [&](usize s) {
    const usize lo = s * n / shards;
    const usize hi = (s + 1) * n / shards;
    for (usize i = lo; i < hi; ++i) {
      const nn::Activations acts = model.forward(calib.images[i]);
      for (usize v = 0; v < acts.values.size(); ++v) {
        for (const float x : acts.values[v].vec()) {
          shard_max[s][v] = std::max(shard_max[s][v], x);
        }
      }
    }
  });
  std::vector<float> maxima(model.num_layers() + 1, 0.0f);
  for (const auto& sm : shard_max) {
    for (usize v = 0; v < maxima.size(); ++v) maxima[v] = std::max(maxima[v], sm[v]);
  }
  return maxima;
}

/// The largest |w| in `w` (0 when empty; NaNs are skipped, as std::max
/// skips a NaN second argument). Eight independent accumulators keep the
/// loop from being one chain of dependent max operations.
float max_abs(const std::vector<float>& w) {
  std::array<float, 8> acc{};
  usize i = 0;
  for (; i + 8 <= w.size(); i += 8) {
    for (usize k = 0; k < 8; ++k) acc[k] = std::max(acc[k], std::fabs(w[i + k]));
  }
  for (; i < w.size(); ++i) acc[0] = std::max(acc[0], std::fabs(w[i]));
  float m = 0.0f;
  for (const float a : acc) m = std::max(m, a);
  return m;
}

/// What a model node maps to after conversion.
struct SourceRef {
  i32 unit = -1;     // -1 = network input
  bool spiking = false;  // true once the unit has fired (post-ReLU)
  double lambda = 1.0;   // activation scale of the spike source
};

}  // namespace

SnnNetwork convert(const Model& model, const nn::Dataset& calib, const ConvertConfig& cfg,
                   ConvertReport* report) {
  SJ_REQUIRE(cfg.timesteps >= 1, "convert: timesteps must be >= 1");
  SJ_REQUIRE(cfg.weight_bits >= 2 && cfg.weight_bits <= 15, "convert: weight_bits in [2,15]");
  SJ_REQUIRE(model.num_layers() > 0, "convert: empty model");
  SJ_REQUIRE(calib.sample_shape == model.input_shape(), "convert: calib shape mismatch");

  const std::vector<float> maxima = activation_maxima(model, calib, cfg.calibration_samples);

  std::vector<FloatUnit> units;
  // node id -> where its value lives after conversion.
  std::vector<SourceRef> node_ref(model.num_layers() + 1);
  node_ref[0] = SourceRef{-1, true, 1.0};  // input pixels in [0,1], lambda 1

  auto shape_hwc = [](const Shape& s) {
    SJ_REQUIRE(s.size() == 3, "expected [h,w,c] shape");
    return s;
  };

  for (NodeId id = 1; id <= static_cast<NodeId>(model.num_layers()); ++id) {
    const nn::Node& node = model.node(id);
    const LayerKind kind = node.layer->kind();
    switch (kind) {
      case LayerKind::Flatten: {
        node_ref[static_cast<usize>(id)] = node_ref[static_cast<usize>(node.inputs[0])];
        break;
      }
      case LayerKind::Dense:
      case LayerKind::Conv2D:
      case LayerKind::AvgPool: {
        const SourceRef src = node_ref[static_cast<usize>(node.inputs[0])];
        SJ_REQUIRE(src.spiking, "convert: linear layer fed by non-spiking source (" +
                                    node.layer->describe() + ")");
        FloatUnit u;
        u.name = node.layer->describe();
        u.out_shape = node.out_shape;
        u.size = static_cast<i64>(shape_numel(node.out_shape));
        FloatEdge e;
        e.source = src.unit;
        if (kind == LayerKind::Dense) {
          const auto& d = static_cast<const nn::DenseLayer&>(*node.layer);
          e.kind = OpKind::Dense;
          e.in_size = d.in_features();
          e.out_size = d.out_features();
          e.weights = d.weights()->vec();
        } else if (kind == LayerKind::Conv2D) {
          const auto& c = static_cast<const nn::Conv2DLayer&>(*node.layer);
          const Shape in_shape =
              shape_hwc(node.inputs[0] == 0
                            ? model.input_shape()
                            : model.node(node.inputs[0]).out_shape);
          e.kind = OpKind::Conv;
          e.in_h = in_shape[0];
          e.in_w = in_shape[1];
          e.in_c = c.in_channels();
          e.kernel = c.kernel();
          e.out_c = c.out_channels();
          e.in_size = static_cast<i64>(shape_numel(in_shape));
          e.out_size = u.size;
          e.weights = c.weights()->vec();
        } else {
          const auto& p = static_cast<const nn::AvgPoolLayer&>(*node.layer);
          const Shape in_shape =
              shape_hwc(node.inputs[0] == 0
                            ? model.input_shape()
                            : model.node(node.inputs[0]).out_shape);
          e.kind = OpKind::Pool;
          e.in_h = in_shape[0];
          e.in_w = in_shape[1];
          e.in_c = in_shape[2];
          e.win = p.window();
          e.in_size = static_cast<i64>(shape_numel(in_shape));
          e.out_size = u.size;
          e.weights = {1.0f / static_cast<float>(p.window() * p.window())};
        }
        // Fold the source's activation scale into the edge now; the unit's
        // own lambda divides at finalize time.
        for (float& w : e.weights) w *= static_cast<float>(src.lambda);
        u.edges.push_back(std::move(e));
        units.push_back(std::move(u));
        node_ref[static_cast<usize>(id)] =
            SourceRef{static_cast<i32>(units.size() - 1), false, 0.0};
        if (kind == LayerKind::AvgPool) {
          // Pooling has no trailing ReLU: it becomes a spiking stage of its
          // own right away (its ANN output is non-negative by construction).
          FloatUnit& pu = units.back();
          double lambda = static_cast<double>(maxima[static_cast<usize>(id)]);
          if (lambda <= 1e-6) lambda = 1.0;
          pu.lambda = lambda;
          for (auto& pe : pu.edges) {
            for (float& w : pe.weights) w = static_cast<float>(w / lambda);
          }
          pu.finalized = true;
          node_ref[static_cast<usize>(id)] =
              SourceRef{static_cast<i32>(units.size() - 1), true, lambda};
        }
        break;
      }
      case LayerKind::Add: {
        // One operand must be a pending (pre-activation) unit, the other a
        // spiking source; the latter joins as a Diag normalization edge.
        SourceRef a = node_ref[static_cast<usize>(node.inputs[0])];
        SourceRef b = node_ref[static_cast<usize>(node.inputs[1])];
        if (a.spiking && !b.spiking) std::swap(a, b);
        SJ_REQUIRE(!a.spiking && a.unit >= 0 && b.spiking,
                   "convert: Add requires one pre-activation and one spiking operand");
        FloatUnit& u = units[static_cast<usize>(a.unit)];
        SJ_REQUIRE(!u.finalized, "convert: Add into finalized unit");
        FloatEdge diag;
        diag.source = b.unit;
        diag.kind = OpKind::Diag;
        diag.in_size = u.size;
        diag.out_size = u.size;
        diag.weights.assign(static_cast<usize>(u.size), static_cast<float>(b.lambda));
        u.edges.push_back(std::move(diag));
        u.name += "+shortcut";
        node_ref[static_cast<usize>(id)] = a;
        break;
      }
      case LayerKind::ReLU: {
        const SourceRef src = node_ref[static_cast<usize>(node.inputs[0])];
        SJ_REQUIRE(!src.spiking && src.unit >= 0, "convert: ReLU on non-pending source");
        FloatUnit& u = units[static_cast<usize>(src.unit)];
        double lambda = static_cast<double>(maxima[static_cast<usize>(id)]);
        if (lambda <= 1e-6) lambda = 1.0;  // dead stage guard
        u.lambda = lambda;
        for (auto& e : u.edges) {
          for (float& w : e.weights) w = static_cast<float>(w / lambda);
        }
        u.finalized = true;
        node_ref[static_cast<usize>(id)] = SourceRef{src.unit, true, lambda};
        break;
      }
    }
  }

  // Finalize a trailing linear output stage (classification logits).
  {
    const SourceRef out = node_ref[static_cast<usize>(model.num_layers())];
    SJ_REQUIRE(out.unit == static_cast<i32>(units.size() - 1),
               "convert: network output must be the last unit");
    FloatUnit& u = units.back();
    if (!u.finalized) {
      double lambda = static_cast<double>(maxima[model.num_layers()]);
      if (lambda <= 1e-6) lambda = 1.0;
      u.lambda = lambda;
      for (auto& e : u.edges) {
        for (float& w : e.weights) w = static_cast<float>(w / lambda);
      }
      u.finalized = true;
    }
  }

  // Quantize.
  SnnNetwork net;
  net.name = model.name() + "-snn";
  net.input_shape = model.input_shape();
  net.input_scale = cfg.input_scale;
  net.timesteps = cfg.timesteps;
  net.weight_bits = cfg.weight_bits;
  const double wmax_repr = static_cast<double>(signed_max(cfg.weight_bits));
  for (auto& fu : units) {
    SJ_REQUIRE(fu.finalized, "convert: unit never activated: " + fu.name);
    float wmax_f = 0.0f;
    for (const auto& e : fu.edges) wmax_f = std::max(wmax_f, max_abs(e.weights));
    const double wmax = static_cast<double>(wmax_f);
    const double scale = wmax > 0.0 ? wmax_repr / wmax : 1.0;
    SnnUnit u;
    u.name = fu.name;
    u.size = fu.size;
    u.out_shape = fu.out_shape;
    u.lambda = fu.lambda;
    u.scale = scale;
    u.threshold = std::max<i32>(1, static_cast<i32>(std::lround(scale)));
    for (auto& fe : fu.edges) {
      Incoming inc;
      inc.source = fe.source;
      inc.op.kind = fe.kind;
      inc.op.in_size = fe.in_size;
      inc.op.out_size = fe.out_size;
      inc.op.in_h = fe.in_h;
      inc.op.in_w = fe.in_w;
      inc.op.in_c = fe.in_c;
      inc.op.kernel = fe.kernel;
      inc.op.out_c = fe.out_c;
      inc.op.win = fe.win;
      // One pass into the pre-sized vector; round_saturate is lround +
      // saturate_signed without the libm call, so the loop vectorizes.
      const usize n = fe.weights.size();
      const int bits = cfg.weight_bits;
      inc.op.weights.resize(n);
      const float* w = fe.weights.data();
      i16* q = inc.op.weights.data();
      for (usize i = 0; i < n; ++i) {
        q[i] = static_cast<i16>(round_saturate(static_cast<double>(w[i]) * scale, bits));
      }
      u.in.push_back(std::move(inc));
    }
    if (report != nullptr) {
      report->units.push_back(UnitReport{u.name, u.lambda, u.scale, u.threshold, wmax});
    }
    net.units.push_back(std::move(u));
  }
  SJ_INFO("converted " << model.name() << " to SNN: " << net.units.size() << " units, "
                       << net.total_weights() << " weights");
  return net;
}

}  // namespace sj::snn
