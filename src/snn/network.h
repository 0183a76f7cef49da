// Integer spiking-network IR shared by the abstract evaluator, the Shenjing
// mapper and the cycle simulator.
//
// A converted network is a DAG of IF (integrate-and-fire) *units*. Each unit
// owns a membrane potential per neuron, one or more *incoming linear edges*
// (dense / convolution / average-pool / diagonal), an integer firing
// threshold, and fires with reset-by-subtraction. All arithmetic is integer:
// weights are quantized to `weight_bits` (5 in the paper), so an abstract
// evaluation and a cycle-accurate Shenjing simulation of the same network
// produce bit-identical spike trains — the paper's central "no accuracy loss
// from mapping" claim (Table IV).
//
// Residual shortcuts (§III.3) appear as an extra Diag edge into the
// block-output unit: the diagonal normalization layer's partial sums join the
// unit's potential before thresholding, exactly like the PS-NoC addition in
// hardware.
#pragma once

#include <string>
#include <vector>

#include "common/bitvec.h"
#include "tensor/tensor.h"

namespace sj::snn {

/// Kinds of linear maps an edge can apply to a source spike vector.
enum class OpKind : u8 {
  Dense,  // full matrix [in, out]
  Conv,   // 'same' convolution on an [h,w,c] spike image
  Pool,   // non-overlapping window sum with one shared weight
  Diag,   // elementwise (identity-shaped normalization layer)
};

const char* op_kind_name(OpKind k);

/// A quantized linear operation. Weight layout by kind:
///  Dense: weights[in * out],  index [i*out + j]
///  Conv:  weights[k*k*cin*cout], index [((ky*k + kx)*cin + ci)*cout + co]
///  Pool:  weights[1] (shared tap weight)
///  Diag:  weights[n]
struct LinearOp {
  OpKind kind = OpKind::Dense;
  std::vector<i16> weights;
  // Geometry. Dense: in_size/out_size. Conv: in_h/in_w/in_c, kernel, out_c.
  // Pool: in_h/in_w/in_c, win. Diag: in_size == out_size.
  i64 in_size = 0;
  i64 out_size = 0;
  i32 in_h = 0, in_w = 0, in_c = 0;
  i32 kernel = 0, out_c = 0, win = 0;

  /// Dense weight accessor (kind must be Dense).
  i16 dense_at(i64 i, i64 j) const { return weights[static_cast<usize>(i * out_size + j)]; }

  /// Number of potential-update additions a spike on input `i` causes
  /// (used for energy accounting and sparsity statistics).
  i64 fanout() const;

  /// Applies this op for all set bits of `spikes`, accumulating into `pot`.
  void accumulate(const BitVec& spikes, std::vector<i32>& pot) const;

  /// Reference dense application (for property tests): returns the full
  /// weight matrix row for input i as (index, weight) pairs.
  std::vector<std::pair<i64, i16>> row_taps(i64 i) const;
};

/// One incoming edge of a unit.
struct Incoming {
  i32 source = -1;  // unit index, or -1 for the network input spikes
  LinearOp op;
};

/// An IF unit: neurons with shared integer threshold.
struct SnnUnit {
  std::string name;
  i64 size = 0;         // neuron count
  Shape out_shape;      // logical shape of the spike vector (e.g. [h,w,c])
  std::vector<Incoming> in;
  i32 threshold = 1;    // fire when potential >= threshold (then subtract)
  // Conversion bookkeeping (documentation/EXPERIMENTS.md):
  double lambda = 1.0;  // ANN activation scale absorbed by this unit
  double scale = 1.0;   // float->integer weight scale S
};

/// A converted, quantized spiking network.
struct SnnNetwork {
  std::string name;
  Shape input_shape;
  i32 input_scale = 255;  // pixel quantization denominator Q
  i32 timesteps = 20;     // spike-train length T per frame
  i32 weight_bits = 5;
  std::vector<SnnUnit> units;  // topologically ordered

  i64 input_size() const { return static_cast<i64>(shape_numel(input_shape)); }
  const SnnUnit& output_unit() const {
    SJ_REQUIRE(!units.empty(), "empty SnnNetwork");
    return units.back();
  }
  /// Total synaptic weight storage (for reporting).
  i64 total_weights() const;
};

/// Deterministic rate encoder for input pixels.
///
/// Each pixel p in [0,1] is quantized to q = round(p*Q); an IF accumulator
/// adds q per timestep and emits a spike whenever it reaches Q (subtracting
/// Q), so the spike rate equals q/Q. Used identically by the abstract
/// evaluator and the cycle simulator's testbench, making input spike trains
/// bit-identical by construction.
class InputEncoder {
 public:
  InputEncoder(const Tensor& image, i32 q);

  /// Spikes for the next timestep.
  BitVec step();
  /// Same, written into `out` (resized to size() bits) so a frame loop can
  /// reuse one buffer instead of allocating per timestep.
  void step(BitVec& out);

  i64 size() const { return static_cast<i64>(quantized_.size()); }
  const std::vector<i32>& quantized() const { return quantized_; }

 private:
  i32 q_;
  std::vector<i32> quantized_;
  std::vector<i32> acc_;
};

/// Convenience: the full spike train for `t` timesteps.
std::vector<BitVec> encode_input(const Tensor& image, i32 q, i32 timesteps);

}  // namespace sj::snn
