#include "tensor/tensor.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/obs.hpp"
#include "sunway/arch.hpp"
#include "sunway/ldm.hpp"
#include "tensor/dispatch.hpp"

namespace ap3::tensor {

Dispatch& dispatch() {
  thread_local Dispatch d;
  return d;
}

sunway::DmaEngine& staging_dma() {
  static sunway::DmaEngine engine;
  return engine;
}

namespace {

std::size_t product(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

/// Range policy for one kernel launch under the thread's dispatch config.
pp::RangePolicy pol(std::size_t n, std::string_view label) {
  pp::RangePolicy p(0, n);
  p.on(dispatch().space).named(label);
  if (dispatch().chunk != 0) p.chunked(dispatch().chunk);
  return p;
}

/// Packed range policy for one pack-tiled launch under the thread's config.
pp::PackedRangePolicy ppol(std::size_t n, std::size_t width, std::size_t row,
                           std::string_view label) {
  pp::PackedRangePolicy p(0, n);
  p.widthed(width).per_row(row).on(dispatch().space).named(label);
  if (dispatch().chunk != 0) p.chunked(dispatch().chunk);
  return p;
}

/// Fixed-order dot product; Acc selects the accumulation precision. With
/// Acc=float this is bitwise the pre-refactor serial kernel.
template <typename Acc>
inline float dot_k(const float* a, const float* w, std::size_t k) {
  Acc acc{};
  for (std::size_t p = 0; p < k; ++p)
    acc += static_cast<Acc>(a[p]) * static_cast<Acc>(w[p]);
  return static_cast<float>(acc);
}

/// Packed strip of fixed-order dots: orow[j] = dot(arow, w + j*k) for j in
/// [j0, j0 + lanes). The full-width path broadcasts one A element against N
/// weight rows per step — N independent accumulation chains in one vector
/// register, each performing dot_k's exact operation sequence (the fma is
/// lane-wise `acc += Acc(a) * Acc(w)`), so the bits match dot_k for every
/// lane. The masked tail falls back to dot_k itself and reads nothing past
/// w + (j0 + lanes) * k.
template <typename Acc, int N>
inline void packed_row_dots(const float* arow, const float* w, std::size_t k,
                            std::size_t j0, std::size_t lanes, float* orow) {
  if (lanes == static_cast<std::size_t>(N)) {
    pp::Pack<Acc, N> acc;
    const float* wbase = w + j0 * k;
    for (std::size_t p = 0; p < k; ++p)
      acc.fma(static_cast<Acc>(arow[p]),
              pp::pack_load_strided<Acc, N>(wbase + p, k));
    pp::pack_store(orow + j0, acc);
  } else {
    for (std::size_t l = 0; l < lanes; ++l)
      orow[j0 + l] = dot_k<Acc>(arow, w + (j0 + l) * k, k);
  }
}

template <typename Acc>
Tensor matmul_nt_flat(const Tensor& a, const Tensor& weight, std::size_t m,
                      std::size_t k, std::size_t n) {
  Tensor out({m, n});
  const float* ad = a.data();
  const float* wd = weight.data();
  float* od = out.data();
  pp::parallel_for(pol(m * n, "tensor:matmul_nt"), [=](std::size_t e) {
    const std::size_t i = e / n, j = e % n;
    od[e] = dot_k<Acc>(ad + i * k, wd + j * k, k);
  });
  return out;
}

/// Packed flat GEMM: one tile = one strip of N output columns of one row.
/// per_row(n) keeps tiles inside a row, so the e -> (i, j) div/mod runs once
/// per tile instead of once per element. Bitwise identical to
/// matmul_nt_flat for every width (see packed_row_dots).
template <typename Acc, int N>
Tensor matmul_nt_packed(const Tensor& a, const Tensor& weight, std::size_t m,
                        std::size_t k, std::size_t n) {
  Tensor out({m, n});
  const float* ad = a.data();
  const float* wd = weight.data();
  float* od = out.data();
  pp::parallel_for(
      ppol(m * n, static_cast<std::size_t>(N), n, "tensor:matmul_nt:packed"),
      [=](const pp::PackTile& t) {
        const std::size_t i = t.offset / n, j0 = t.offset % n;
        packed_row_dots<Acc, N>(ad + i * k, wd, k, j0, t.lanes, od + i * n);
      });
  return out;
}

/// Square LDM tile edge such that an A panel, a W panel and the output block
/// fit one CPE's scratchpad with headroom; 0 if even a 1x1 tile cannot fit.
std::size_t ldm_tile_edge(std::size_t k) {
  constexpr std::size_t kBudget = sunway::kLdmBytesPerCpe * 3 / 4;
  for (std::size_t t : {std::size_t{64}, std::size_t{48}, std::size_t{32},
                        std::size_t{24}, std::size_t{16}, std::size_t{8},
                        std::size_t{4}, std::size_t{2}, std::size_t{1}}) {
    if (sizeof(float) * (2 * t * k + t * t) <= kBudget) return t;
  }
  return 0;
}

/// kSunwayCPE GEMM: each parallel unit is one output panel. The panel's A
/// rows and W rows are DMA-staged into the CPE's 256 KiB LDM, the full-k
/// dots run from the scratchpad, and the finished block is DMA'd back row by
/// row. Staging is value-preserving and the accumulation order matches the
/// flat kernel, so the result is bit-identical to kSerial.
///
/// `pack` != 0 runs the in-panel dots as pack-tiled strips (packed_sweep +
/// packed_row_dots over the staged w_tile), which is the same tile sequence
/// the flat packed kernel would produce per output row — bits unchanged.
/// The panel launch is a plain RangePolicy, so the pp:pack:* counters are
/// charged here, once per GEMM, with the exact in-panel tile count.
template <typename Acc>
Tensor matmul_nt_cpe(const Tensor& a, const Tensor& weight, std::size_t m,
                     std::size_t k, std::size_t n, std::size_t edge,
                     std::size_t pack) {
  Tensor out({m, n});
  const std::size_t tiles_m = (m + edge - 1) / edge;
  const std::size_t tiles_n = (n + edge - 1) / edge;
  const float* ad = a.data();
  const float* wd = weight.data();
  float* od = out.data();
  if (pack != 0 && obs::enabled()) {
    std::size_t strips_per_row = 0;
    for (std::size_t jb = 0; jb < tiles_n; ++jb) {
      const std::size_t cols = std::min(edge, n - jb * edge);
      strips_per_row += (cols + pack - 1) / pack;
    }
    obs::counter_add("pp:pack:launches", 1.0);
    obs::counter_add("pp:pack:tiles",
                     static_cast<double>(strips_per_row * m));
  }
  pp::parallel_for(
      pol(tiles_m * tiles_n, "tensor:matmul_nt:cpe_panel"),
      [=](std::size_t tile) {
        thread_local sunway::LdmAllocator ldm(sunway::kLdmBytesPerCpe);
        ldm.reset();
        const std::size_t i0 = (tile / tiles_n) * edge;
        const std::size_t j0 = (tile % tiles_n) * edge;
        const std::size_t rows = std::min(edge, m - i0);
        const std::size_t cols = std::min(edge, n - j0);
        float* a_tile = ldm.alloc_array<float>(rows * k);
        float* w_tile = ldm.alloc_array<float>(cols * k);
        float* o_tile = ldm.alloc_array<float>(rows * cols);
        staging_dma().get(a_tile, ad + i0 * k, rows * k * sizeof(float));
        staging_dma().get(w_tile, wd + j0 * k, cols * k * sizeof(float));
        if (pack == 0) {
          for (std::size_t ii = 0; ii < rows; ++ii)
            for (std::size_t jj = 0; jj < cols; ++jj)
              o_tile[ii * cols + jj] =
                  dot_k<Acc>(a_tile + ii * k, w_tile + jj * k, k);
        } else {
          pp::with_pack_width(pack, [&]<int N>() {
            for (std::size_t ii = 0; ii < rows; ++ii)
              pp::packed_sweep(
                  0, cols, static_cast<std::size_t>(N),
                  [&](const pp::PackTile& t) {
                    packed_row_dots<Acc, N>(a_tile + ii * k, w_tile, k,
                                            t.offset, t.lanes,
                                            o_tile + ii * cols);
                  });
          });
        }
        for (std::size_t ii = 0; ii < rows; ++ii)
          staging_dma().put(od + (i0 + ii) * n + j0, o_tile + ii * cols,
                            cols * sizeof(float));
        if (obs::enabled())
          obs::counter_add("tensor:cpe:ldm_bytes",
                           static_cast<double>(sizeof(float) *
                                               (rows * k + cols * k +
                                                rows * cols)));
      });
  return out;
}

}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(product(shape_), 0.0f) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  AP3_REQUIRE_MSG(data_.size() == product(shape_),
                  "tensor data size does not match shape");
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) const {
  AP3_REQUIRE(product(shape) == data_.size());
  return Tensor(std::move(shape), data_);
}

Tensor matmul_nt(const Tensor& a, const Tensor& weight) {
  AP3_REQUIRE(a.rank() == 2 && weight.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1);
  const std::size_t n = weight.dim(0);
  AP3_REQUIRE_MSG(weight.dim(1) == k, "matmul_nt inner dimension mismatch");
  const Dispatch& d = dispatch();
  if (d.pack != 0)
    AP3_REQUIRE_MSG(pp::is_pack_width(d.pack),
                    "Dispatch.pack " << d.pack << " not in {0,1,2,4,8,16}");
  if (d.space == pp::ExecSpace::kSunwayCPE) {
    const std::size_t edge = ldm_tile_edge(k);
    if (edge != 0) {
      return d.accum == Accum::kFloat64
                 ? matmul_nt_cpe<double>(a, weight, m, k, n, edge, d.pack)
                 : matmul_nt_cpe<float>(a, weight, m, k, n, edge, d.pack);
    }
    // k too large for any LDM panel: fall through to the flat kernel (same
    // bits, no staging) rather than refuse the launch.
  }
  if (d.pack != 0) {
    return pp::with_pack_width(d.pack, [&]<int N>() {
      return d.accum == Accum::kFloat64
                 ? matmul_nt_packed<double, N>(a, weight, m, k, n)
                 : matmul_nt_packed<float, N>(a, weight, m, k, n);
    });
  }
  return d.accum == Accum::kFloat64 ? matmul_nt_flat<double>(a, weight, m, k, n)
                                    : matmul_nt_flat<float>(a, weight, m, k, n);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  AP3_REQUIRE(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  AP3_REQUIRE_MSG(b.dim(0) == k, "matmul inner dimension mismatch");
  Tensor out({m, n});
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out.data();
  const bool f64 = dispatch().accum == Accum::kFloat64;
  pp::parallel_for(pol(m * n, "tensor:matmul"), [=](std::size_t e) {
    const std::size_t i = e / n, j = e % n;
    if (f64) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<double>(ad[i * k + p]) * bd[p * n + j];
      od[e] = static_cast<float>(acc);
    } else {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += ad[i * k + p] * bd[p * n + j];
      od[e] = acc;
    }
  });
  return out;
}

namespace {

/// Packed conv1d: one tile = N consecutive output positions of one (b, co)
/// row, so per_row(len) pins tiles inside a row and the taps become
/// contiguous loads. Lanes sweep (ci, t) in the same ascending order as the
/// scalar reference with identical out-of-range skips; the interior fast
/// path (every lane's source in range) uses a masked contiguous load, the
/// boundary path peels to per-lane scalar ops. acc lanes beyond the tail's
/// extent accumulate zeros and are never stored.
template <typename Acc, int N>
Tensor conv1d_packed(const Tensor& x, const Tensor& kernel, const Tensor& bias,
                     std::size_t batch, std::size_t cin, std::size_t len,
                     std::size_t cout, std::size_t kk) {
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(kk / 2);
  Tensor out({batch, cout, len});
  const float* xd = x.data();
  const float* kd = kernel.data();
  const float* bd = bias.data();
  float* od = out.data();
  pp::parallel_for(
      ppol(batch * cout * len, static_cast<std::size_t>(N), len,
           "tensor:conv1d:packed"),
      [=](const pp::PackTile& t) {
        const std::size_t l0 = t.offset % len;
        const std::size_t co = (t.offset / len) % cout;
        const std::size_t b = t.offset / (len * cout);
        const std::ptrdiff_t slen = static_cast<std::ptrdiff_t>(len);
        const std::ptrdiff_t lanes = static_cast<std::ptrdiff_t>(t.lanes);
        pp::Pack<Acc, N> acc(static_cast<Acc>(bd[co]));
        for (std::size_t ci = 0; ci < cin; ++ci) {
          const float* xrow = xd + (b * cin + ci) * len;
          for (std::size_t tap = 0; tap < kk; ++tap) {
            const std::ptrdiff_t src0 = static_cast<std::ptrdiff_t>(l0) +
                                        static_cast<std::ptrdiff_t>(tap) - half;
            const float kv = kd[(co * cin + ci) * kk + tap];
            if (src0 >= 0 && src0 + lanes <= slen) {
              acc.fma(static_cast<Acc>(kv),
                      pp::pack_load<Acc, N>(xrow + src0, t.lanes));
            } else {
              for (std::ptrdiff_t l = 0; l < lanes; ++l) {
                const std::ptrdiff_t src = src0 + l;
                if (src < 0 || src >= slen) continue;
                acc[static_cast<int>(l)] +=
                    static_cast<Acc>(kv) * static_cast<Acc>(xrow[src]);
              }
            }
          }
        }
        pp::pack_store(od + t.offset, acc, t.lanes);
      });
  return out;
}

}  // namespace

Tensor conv1d(const Tensor& x, const Tensor& kernel, const Tensor& bias) {
  AP3_REQUIRE(x.rank() == 3 && kernel.rank() == 3 && bias.rank() == 1);
  const std::size_t batch = x.dim(0), cin = x.dim(1), len = x.dim(2);
  const std::size_t cout = kernel.dim(0), kk = kernel.dim(2);
  AP3_REQUIRE_MSG(kernel.dim(1) == cin, "conv1d channel mismatch");
  AP3_REQUIRE_MSG(kk % 2 == 1, "conv1d kernel size must be odd (same padding)");
  AP3_REQUIRE(bias.dim(0) == cout);
  const Dispatch& d = dispatch();
  if (d.pack != 0) {
    return pp::with_pack_width(d.pack, [&]<int N>() {
      return d.accum == Accum::kFloat64
                 ? conv1d_packed<double, N>(x, kernel, bias, batch, cin, len,
                                            cout, kk)
                 : conv1d_packed<float, N>(x, kernel, bias, batch, cin, len,
                                           cout, kk);
    });
  }
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(kk / 2);
  Tensor out({batch, cout, len});
  const float* xd = x.data();
  const float* kd = kernel.data();
  const float* bd = bias.data();
  float* od = out.data();
  const bool f64 = dispatch().accum == Accum::kFloat64;
  // One output element per index: acc starts at the bias and sweeps (ci, t)
  // in ascending order — the pre-refactor accumulation order.
  pp::parallel_for(pol(batch * cout * len, "tensor:conv1d"), [=](std::size_t e) {
    const std::size_t l = e % len;
    const std::size_t co = (e / len) % cout;
    const std::size_t b = e / (len * cout);
    double acc64 = static_cast<double>(bd[co]);
    float acc32 = bd[co];
    for (std::size_t ci = 0; ci < cin; ++ci) {
      for (std::size_t t = 0; t < kk; ++t) {
        const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(l) +
                                   static_cast<std::ptrdiff_t>(t) - half;
        if (src < 0 || src >= static_cast<std::ptrdiff_t>(len)) continue;
        const float kv = kd[(co * cin + ci) * kk + t];
        const float xv =
            xd[(b * cin + ci) * len + static_cast<std::size_t>(src)];
        if (f64)
          acc64 += static_cast<double>(kv) * xv;
        else
          acc32 += kv * xv;
      }
    }
    od[e] = f64 ? static_cast<float>(acc64) : acc32;
  });
  return out;
}

Tensor conv1d_backward(const Tensor& x, const Tensor& kernel,
                       const Tensor& grad_out, Tensor& grad_kernel,
                       Tensor& grad_bias) {
  const std::size_t batch = x.dim(0), cin = x.dim(1), len = x.dim(2);
  const std::size_t cout = kernel.dim(0), kk = kernel.dim(2);
  AP3_REQUIRE(grad_out.dim(0) == batch && grad_out.dim(1) == cout &&
              grad_out.dim(2) == len);
  AP3_REQUIRE(grad_kernel.same_shape(kernel));
  AP3_REQUIRE(grad_bias.dim(0) == cout);
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(kk / 2);
  const float* xd = x.data();
  const float* kd = kernel.data();
  const float* gd = grad_out.data();
  // Three race-free passes, one gradient tensor each; every output element
  // owns its full accumulation, visiting contributions in the order of the
  // old single serial sweep so the bits do not move.
  float* gbd = grad_bias.data();
  pp::parallel_for(pol(cout, "tensor:conv1d:bwd_bias"), [=](std::size_t co) {
    float acc = gbd[co];
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t l = 0; l < len; ++l) acc += gd[(b * cout + co) * len + l];
    gbd[co] = acc;
  });
  float* gkd = grad_kernel.data();
  pp::parallel_for(
      pol(cout * cin * kk, "tensor:conv1d:bwd_kernel"), [=](std::size_t e) {
        const std::size_t t = e % kk;
        const std::size_t ci = (e / kk) % cin;
        const std::size_t co = e / (kk * cin);
        float acc = gkd[e];
        for (std::size_t b = 0; b < batch; ++b) {
          for (std::size_t l = 0; l < len; ++l) {
            const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(l) +
                                       static_cast<std::ptrdiff_t>(t) - half;
            if (src < 0 || src >= static_cast<std::ptrdiff_t>(len)) continue;
            acc += gd[(b * cout + co) * len + l] *
                   xd[(b * cin + ci) * len + static_cast<std::size_t>(src)];
          }
        }
        gkd[e] = acc;
      });
  Tensor grad_in({batch, cin, len});
  float* gid = grad_in.data();
  pp::parallel_for(
      pol(batch * cin * len, "tensor:conv1d:bwd_in"), [=](std::size_t e) {
        const std::size_t src = e % len;
        const std::size_t ci = (e / len) % cin;
        const std::size_t b = e / (len * cin);
        float acc = 0.0f;
        // t descending makes l = src - t + half ascend, matching the old
        // sweep's per-(co) visit order.
        for (std::size_t co = 0; co < cout; ++co) {
          for (std::size_t ti = kk; ti-- > 0;) {
            const std::ptrdiff_t l = static_cast<std::ptrdiff_t>(src) -
                                     static_cast<std::ptrdiff_t>(ti) + half;
            if (l < 0 || l >= static_cast<std::ptrdiff_t>(len)) continue;
            acc += gd[(b * cout + co) * len + static_cast<std::size_t>(l)] *
                   kd[(co * cin + ci) * kk + ti];
          }
        }
        gid[e] = acc;
      });
  return grad_in;
}

void add_inplace(Tensor& a, const Tensor& b) {
  AP3_REQUIRE(a.same_shape(b));
  float* ad = a.data();
  const float* bd = b.data();
  pp::parallel_for(pol(a.size(), "tensor:add"),
                   [=](std::size_t i) { ad[i] += bd[i]; });
}

void bias_add_rows(Tensor& out, const Tensor& bias) {
  AP3_REQUIRE(out.rank() == 2 && bias.rank() == 1 &&
              out.dim(1) == bias.dim(0));
  const std::size_t n = out.dim(1);
  float* od = out.data();
  const float* bd = bias.data();
  pp::parallel_for(pol(out.size(), "tensor:bias_add"),
                   [=](std::size_t e) { od[e] += bd[e % n]; });
}

Tensor relu(const Tensor& x) {
  Tensor out = x;
  float* od = out.data();
  pp::parallel_for(pol(out.size(), "tensor:relu"), [=](std::size_t i) {
    if (od[i] < 0.0f) od[i] = 0.0f;
  });
  return out;
}

Tensor relu_backward(const Tensor& x, const Tensor& grad_out) {
  AP3_REQUIRE(x.same_shape(grad_out));
  Tensor out = grad_out;
  const float* xd = x.data();
  float* od = out.data();
  pp::parallel_for(pol(out.size(), "tensor:relu:bwd"), [=](std::size_t i) {
    if (xd[i] <= 0.0f) od[i] = 0.0f;
  });
  return out;
}

float mse(const Tensor& pred, const Tensor& target) {
  AP3_REQUIRE(pred.same_shape(target));
  const float* pd = pred.data();
  const float* td = target.data();
  const double acc = pp::parallel_reduce(
      pol(pred.size(), "tensor:mse"),
      [=](std::size_t i, double& a) {
        const double d = static_cast<double>(pd[i]) - td[i];
        a += d * d;
      },
      0.0);
  return static_cast<float>(acc / static_cast<double>(pred.size()));
}

Tensor mse_grad(const Tensor& pred, const Tensor& target) {
  AP3_REQUIRE(pred.same_shape(target));
  Tensor grad(pred.shape());
  const float scale = 2.0f / static_cast<float>(pred.size());
  const float* pd = pred.data();
  const float* td = target.data();
  float* gd = grad.data();
  pp::parallel_for(pol(pred.size(), "tensor:mse:grad"), [=](std::size_t i) {
    gd[i] = scale * (pd[i] - td[i]);
  });
  return grad;
}

}  // namespace ap3::tensor
