#include "snn/network.h"

#include <cmath>

#include "common/simd.h"

namespace sj::snn {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::Dense: return "Dense";
    case OpKind::Conv: return "Conv";
    case OpKind::Pool: return "Pool";
    case OpKind::Diag: return "Diag";
  }
  return "?";
}

i64 LinearOp::fanout() const {
  switch (kind) {
    case OpKind::Dense: return out_size;
    case OpKind::Conv: return static_cast<i64>(kernel) * kernel * out_c;  // upper bound
    case OpKind::Pool: return 1;
    case OpKind::Diag: return 1;
  }
  return 0;
}

void LinearOp::accumulate(const BitVec& spikes, std::vector<i32>& pot) const {
  SJ_REQUIRE(static_cast<i64>(spikes.size()) == in_size, "LinearOp: spike size mismatch");
  SJ_REQUIRE(static_cast<i64>(pot.size()) == out_size, "LinearOp: potential size mismatch");
  switch (kind) {
    case OpKind::Dense: {
      const i16* w = weights.data();
      i32* p = pot.data();
      const usize out_n = static_cast<usize>(out_size);
      spikes.for_each_set([&](usize i) {
        const i16* row = w + i * out_n;
        for (usize j = 0; j < out_n; ++j) p[j] += row[j];
      });
      break;
    }
    case OpKind::Conv: {
      const i32 pad = (kernel - 1) / 2;
      const i16* w = weights.data();
      i32* p = pot.data();
      spikes.for_each_set([&](usize flat) {
        // Input layout [h, w, c].
        const i32 ci = static_cast<i32>(flat) % in_c;
        const i32 rest = static_cast<i32>(flat) / in_c;
        const i32 ix = rest % in_w;
        const i32 iy = rest / in_w;
        // A spike at (iy, ix, ci) feeds output (oy, ox) = (iy - ky + pad, ...)
        for (i32 ky = 0; ky < kernel; ++ky) {
          const i32 oy = iy - ky + pad;
          if (oy < 0 || oy >= in_h) continue;
          for (i32 kx = 0; kx < kernel; ++kx) {
            const i32 ox = ix - kx + pad;
            if (ox < 0 || ox >= in_w) continue;
            const i16* kcol = w + ((static_cast<i64>(ky) * kernel + kx) * in_c + ci) * out_c;
            i32* prow = p + (static_cast<i64>(oy) * in_w + ox) * out_c;
            for (i32 co = 0; co < out_c; ++co) prow[co] += kcol[co];
          }
        }
      });
      break;
    }
    case OpKind::Pool: {
      const i32 wv = weights[0];
      const i32 wo = in_w / win;
      i32* p = pot.data();
      spikes.for_each_set([&](usize flat) {
        const i32 c = static_cast<i32>(flat) % in_c;
        const i32 rest = static_cast<i32>(flat) / in_c;
        const i32 ix = rest % in_w;
        const i32 iy = rest / in_w;
        p[(static_cast<i64>(iy / win) * wo + (ix / win)) * in_c + c] += wv;
      });
      break;
    }
    case OpKind::Diag: {
      const i16* w = weights.data();
      i32* p = pot.data();
      spikes.for_each_set([&](usize i) { p[i] += w[i]; });
      break;
    }
  }
}

std::vector<std::pair<i64, i16>> LinearOp::row_taps(i64 i) const {
  std::vector<std::pair<i64, i16>> taps;
  switch (kind) {
    case OpKind::Dense: {
      for (i64 j = 0; j < out_size; ++j) {
        const i16 w = dense_at(i, j);
        if (w != 0) taps.emplace_back(j, w);
      }
      break;
    }
    case OpKind::Conv: {
      const i32 pad = (kernel - 1) / 2;
      const i32 ci = static_cast<i32>(i) % in_c;
      const i32 rest = static_cast<i32>(i) / in_c;
      const i32 ix = rest % in_w;
      const i32 iy = rest / in_w;
      for (i32 ky = 0; ky < kernel; ++ky) {
        const i32 oy = iy - ky + pad;
        if (oy < 0 || oy >= in_h) continue;
        for (i32 kx = 0; kx < kernel; ++kx) {
          const i32 ox = ix - kx + pad;
          if (ox < 0 || ox >= in_w) continue;
          for (i32 co = 0; co < out_c; ++co) {
            const i16 w =
                weights[static_cast<usize>(((static_cast<i64>(ky) * kernel + kx) * in_c + ci) *
                                               out_c +
                                           co)];
            if (w != 0) {
              taps.emplace_back((static_cast<i64>(oy) * in_w + ox) * out_c + co, w);
            }
          }
        }
      }
      break;
    }
    case OpKind::Pool: {
      const i32 c = static_cast<i32>(i) % in_c;
      const i32 rest = static_cast<i32>(i) / in_c;
      const i32 ix = rest % in_w;
      const i32 iy = rest / in_w;
      const i32 wo = in_w / win;
      taps.emplace_back((static_cast<i64>(iy / win) * wo + (ix / win)) * in_c + c, weights[0]);
      break;
    }
    case OpKind::Diag: {
      if (weights[static_cast<usize>(i)] != 0) taps.emplace_back(i, weights[static_cast<usize>(i)]);
      break;
    }
  }
  return taps;
}

i64 SnnNetwork::total_weights() const {
  i64 n = 0;
  for (const auto& u : units) {
    for (const auto& e : u.in) n += static_cast<i64>(e.op.weights.size());
  }
  return n;
}

InputEncoder::InputEncoder(const Tensor& image, i32 q) : q_(q) {
  // The upper bound keeps acc + q (< 2Q) inside i32 (simd::encode_step).
  SJ_REQUIRE(q >= 1 && q <= (i32{1} << 30), "InputEncoder: scale must be in [1, 2^30]");
  quantized_.reserve(image.numel());
  for (usize i = 0; i < image.numel(); ++i) {
    float p = image[i];
    p = std::min(1.0f, std::max(0.0f, p));
    quantized_.push_back(static_cast<i32>(std::lround(static_cast<double>(p) * q)));
  }
  acc_.assign(quantized_.size(), 0);
}

BitVec InputEncoder::step() {
  BitVec spikes;
  step(spikes);
  return spikes;
}

void InputEncoder::step(BitVec& out) {
  if (out.size() != quantized_.size()) out = BitVec(quantized_.size());
  simd::encode_step(acc_.data(), quantized_.data(), static_cast<int>(quantized_.size()), q_,
                    out.word_data());
}

std::vector<BitVec> encode_input(const Tensor& image, i32 q, i32 timesteps) {
  InputEncoder enc(image, q);
  std::vector<BitVec> train;
  train.reserve(static_cast<usize>(timesteps));
  for (i32 t = 0; t < timesteps; ++t) train.push_back(enc.step());
  return train;
}

}  // namespace sj::snn
