// Histograms: the currency of HEP analysis results.
//
// Coffea applications reduce terabytes of events into summary histograms;
// the aggregation is commutative and associative, which is exactly what
// licenses the paper's tree-reduction rewrite (Fig 11). We implement real
// regular-binned histograms with weights; tests rely on merge algebra and
// on digests to prove result identity across schedulers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dag/value.h"
#include "util/hash.h"

namespace hepvine::hep {

/// 1-D histogram with regular binning, under/overflow, and weighted fills.
class Histogram1D {
 public:
  Histogram1D() = default;
  Histogram1D(std::uint32_t bins, double lo, double hi);

  /// Fill with unit weight: exactly what fill(x, 1.0) adds, since 1.0 is
  /// already a multiple of 1/1024, without the rounding call.
  void fill(double x) { add(x, 1.0, 1); }
  /// `n` unit fills at once: bit-identical to n fill(x) calls, since unit
  /// counts are exact integers below 2^53 in any order.
  void fill_n(double x, std::uint64_t n) {
    add(x, static_cast<double>(n), n);
  }
  /// Fill with a weight. Weights are quantized to multiples of 1/1024 so
  /// that accumulation is exactly associative/commutative (see .cpp).
  void fill(double x, double weight);
  void merge(const Histogram1D& other);

  [[nodiscard]] std::uint32_t bins() const noexcept {
    return static_cast<std::uint32_t>(counts_.size());
  }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] double bin_content(std::uint32_t i) const {
    return counts_[i];
  }
  [[nodiscard]] double underflow() const noexcept { return underflow_; }
  [[nodiscard]] double overflow() const noexcept { return overflow_; }
  /// Total weight including under/overflow.
  [[nodiscard]] double integral() const noexcept;
  [[nodiscard]] std::uint64_t entries() const noexcept { return entries_; }
  /// Weighted mean of in-range fills (bin centers weighted by content).
  [[nodiscard]] double mean() const;

  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return counts_.size() * sizeof(double) + 64;
  }
  void add_to_digest(util::Hasher& hasher) const;

  friend bool operator==(const Histogram1D&, const Histogram1D&) = default;

 private:
  /// Add an already quantized weight of `entries` fills to x's bin. Sums
  /// of multiples of 1/1024 are exact, so they do not depend on the order
  /// of the fills.
  void add(double x, double weight, std::uint64_t entries) {
    entries_ += entries;
    if (x < lo_) {
      // vine-lint: suppress(float-accum) — exact sum of 1/1024 multiples
      underflow_ += weight;
    } else if (x >= hi_) {
      // vine-lint: suppress(float-accum) — exact sum of 1/1024 multiples
      overflow_ += weight;
    } else {
      auto bin = static_cast<std::size_t>((x - lo_) / width_);
      if (bin >= counts_.size()) bin = counts_.size() - 1;  // fp edge guard
      counts_[bin] += weight;
    }
  }

  double lo_ = 0.0;
  double hi_ = 1.0;
  double width_ = 1.0;
  std::vector<double> counts_;
  double underflow_ = 0.0;
  double overflow_ = 0.0;
  std::uint64_t entries_ = 0;
};

/// Pearson chi-squared per degree of freedom between two histograms with
/// identical binning (Poisson errors, empty-in-both bins skipped). ~1 for
/// statistically compatible spectra; used to validate physics shapes
/// across independent dataset seeds. Throws on binning mismatch.
[[nodiscard]] double chi2_per_dof(const Histogram1D& a,
                                  const Histogram1D& b);

/// A named collection of histograms — what one processor task returns and
/// what accumulation merges. Implements dag::Value so it can flow through
/// any scheduler.
class HistogramSet final : public dag::Value {
 public:
  HistogramSet() = default;

  /// Access (creating if absent) a histogram by name.
  Histogram1D& get(const std::string& name, std::uint32_t bins = 100,
                   double lo = 0.0, double hi = 1.0);
  [[nodiscard]] const Histogram1D* find(const std::string& name) const;

  void merge(const HistogramSet& other);

  [[nodiscard]] std::size_t count() const noexcept { return hists_.size(); }
  [[nodiscard]] const std::map<std::string, Histogram1D>& histograms()
      const noexcept {
    return hists_;
  }

  [[nodiscard]] std::uint64_t byte_size() const override;
  [[nodiscard]] util::Digest128 digest() const override;

  /// Merge any number of HistogramSet values (the accumulate ComputeFn).
  [[nodiscard]] static dag::ValuePtr merge_values(
      const std::vector<dag::ValuePtr>& inputs);

 private:
  std::map<std::string, Histogram1D> hists_;
};

}  // namespace hepvine::hep
