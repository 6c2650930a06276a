// Minimal FP32 tensor library backing the AI physics suite (§5.2.1).
//
// The paper's point is that AI parameterizations unify physics into "highly
// efficient tensor kernels (principally matrix multiplication)"; this module
// provides exactly those kernels — matmul, conv1d, elementwise — written
// once and dispatched through the pp layer so they run on any execution
// space (see tensor/dispatch.hpp for the space/precision knobs). Every
// kernel is formulated per output element with a fixed-order inner
// accumulation, so results are bitwise identical across kSerial /
// kHostThreads / kSunwayCPE; on the CPE simulator matmul_nt stages LDM
// panels through the DMA engine without moving a bit. FP32 storage
// throughout, matching the suite's operator-level precision; dot products
// optionally accumulate in FP64 (Accum::kFloat64, the verification
// reference).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace ap3::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t dim(std::size_t d) const { return shape_.at(d); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access (row-major).
  float& at2(std::size_t i, std::size_t j) {
    return data_[i * shape_[1] + j];
  }
  float at2(std::size_t i, std::size_t j) const {
    return data_[i * shape_[1] + j];
  }
  /// 3-D access (row-major).
  float& at3(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float at3(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

  void fill(float value);
  void zero() { fill(0.0f); }
  Tensor reshaped(std::vector<std::size_t> shape) const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

// --- kernels -----------------------------------------------------------------

/// C = A(B,M,K order (m,k)) * B^T where weight is (N,K): out (M,N).
/// This is the Dense-layer shape: rows are samples.
Tensor matmul_nt(const Tensor& a, const Tensor& weight);

/// out = a * b with a (M,K), b (K,N).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Same-padding 1-D convolution: x (B, Cin, L), kernel (Cout, Cin, K) with K
/// odd, bias (Cout). Output (B, Cout, L).
Tensor conv1d(const Tensor& x, const Tensor& kernel, const Tensor& bias);

/// Gradients of conv1d: given dL/dy, produce dL/dx and accumulate dL/dk,
/// dL/db.
Tensor conv1d_backward(const Tensor& x, const Tensor& kernel,
                       const Tensor& grad_out, Tensor& grad_kernel,
                       Tensor& grad_bias);

void add_inplace(Tensor& a, const Tensor& b);
/// out (M,N) += bias (N), broadcast over rows (the Dense bias add).
void bias_add_rows(Tensor& out, const Tensor& bias);
Tensor relu(const Tensor& x);
/// dL/dx for relu given x and dL/dy.
Tensor relu_backward(const Tensor& x, const Tensor& grad_out);

/// Mean squared error and its gradient w.r.t. prediction.
float mse(const Tensor& pred, const Tensor& target);
Tensor mse_grad(const Tensor& pred, const Tensor& target);

}  // namespace ap3::tensor
