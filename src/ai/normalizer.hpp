// Per-channel z-score normalization for the AI physics suite.
//
// Physical inputs span wildly different magnitudes (pressure ~1e5 Pa,
// humidity ~1e-3 kg/kg); the networks see normalized values and their
// outputs are denormalized back to physical tendencies/fluxes.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace ap3::ai {

class ChannelNormalizer {
 public:
  ChannelNormalizer() = default;

  /// Fit per-channel mean/std over a (N, C, L) tensor.
  static ChannelNormalizer fit(const tensor::Tensor& data);
  /// Fit per-feature over a (N, F) tensor (each feature its own channel).
  static ChannelNormalizer fit_flat(const tensor::Tensor& data);

  /// Normalize in place; shape must match the fitted layout.
  void apply(tensor::Tensor& data) const;
  void invert(tensor::Tensor& data) const;

  std::size_t num_channels() const { return means_.size(); }
  float mean(std::size_t c) const { return means_[c]; }

  // Raw access for (de)serialization.
  bool is_flat() const { return flat_; }
  const std::vector<float>& means() const { return means_; }
  const std::vector<float>& stddevs() const { return stds_; }
  static ChannelNormalizer from_raw(bool flat, std::vector<float> means,
                                    std::vector<float> stds) {
    ChannelNormalizer out;
    out.flat_ = flat;
    out.means_ = std::move(means);
    out.stds_ = std::move(stds);
    return out;
  }

 private:
  bool flat_ = false;
  std::vector<float> means_;
  std::vector<float> stds_;
};

}  // namespace ap3::ai
