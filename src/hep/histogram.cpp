#include "hep/histogram.h"

#include <cmath>
#include <stdexcept>

#include "util/det_sum.h"

namespace hepvine::hep {

Histogram1D::Histogram1D(std::uint32_t bins, double lo, double hi)
    : lo_(lo), hi_(hi), counts_(bins, 0.0) {
  if (bins == 0 || !(hi > lo)) {
    throw std::invalid_argument("histogram needs bins > 0 and hi > lo");
  }
  width_ = (hi - lo) / static_cast<double>(bins);
}

void Histogram1D::fill(double x, double weight) {
  // Quantize weights to 1/1024: sums of such values are exact in binary
  // floating point (up to ~2^42 entries), which makes histogram merging
  // exactly associative and commutative. Tests exploit this to assert
  // bit-identical results under any reduction tree shape.
  add(x, std::round(weight * 1024.0) / 1024.0, 1);
}

void Histogram1D::merge(const Histogram1D& other) {
  if (counts_.empty()) {
    *this = other;
    return;
  }
  if (other.counts_.empty()) return;
  if (other.bins() != bins() || other.lo_ != lo_ || other.hi_ != hi_) {
    throw std::invalid_argument("merging histograms with different binning");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  entries_ += other.entries_;
}

double Histogram1D::integral() const noexcept {
  util::DetSum sum(underflow_ + overflow_);
  for (double c : counts_) sum.add(c);
  return sum.value();
}

double Histogram1D::mean() const {
  util::DetSum wsum;
  util::DetSum xsum;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double center = lo_ + width_ * (static_cast<double>(i) + 0.5);
    wsum.add(counts_[i]);
    xsum.add(counts_[i] * center);
  }
  return wsum.value() > 0 ? xsum.value() / wsum.value() : 0.0;
}

void Histogram1D::add_to_digest(util::Hasher& hasher) const {
  hasher.update_double(lo_).update_double(hi_);
  hasher.update_u64(counts_.size());
  for (double c : counts_) hasher.update_double(c);
  hasher.update_double(underflow_).update_double(overflow_);
  hasher.update_u64(entries_);
}

double chi2_per_dof(const Histogram1D& a, const Histogram1D& b) {
  if (a.bins() != b.bins() || a.lo() != b.lo() || a.hi() != b.hi()) {
    throw std::invalid_argument("chi2 requires identical binning");
  }
  util::DetSum chi2;
  std::size_t dof = 0;
  for (std::uint32_t i = 0; i < a.bins(); ++i) {
    const double na = a.bin_content(i);
    const double nb = b.bin_content(i);
    const double var = na + nb;  // Poisson
    if (var <= 0) continue;
    const double d = na - nb;
    chi2.add(d * d / var);
    ++dof;
  }
  return dof > 0 ? chi2.value() / static_cast<double>(dof) : 0.0;
}

Histogram1D& HistogramSet::get(const std::string& name, std::uint32_t bins,
                               double lo, double hi) {
  auto it = hists_.find(name);
  if (it == hists_.end()) {
    it = hists_.emplace(name, Histogram1D(bins, lo, hi)).first;
  }
  return it->second;
}

const Histogram1D* HistogramSet::find(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

void HistogramSet::merge(const HistogramSet& other) {
  for (const auto& [name, hist] : other.hists_) {
    auto it = hists_.find(name);
    if (it == hists_.end()) {
      hists_.emplace(name, hist);
    } else {
      it->second.merge(hist);
    }
  }
}

std::uint64_t HistogramSet::byte_size() const {
  std::uint64_t total = 128;
  for (const auto& [name, hist] : hists_) {
    total += name.size() + hist.byte_size();
  }
  return total;
}

util::Digest128 HistogramSet::digest() const {
  util::Hasher hasher(0x415e7);
  hasher.update_u64(hists_.size());
  for (const auto& [name, hist] : hists_) {
    hasher.update(name);
    hist.add_to_digest(hasher);
  }
  return hasher.digest();
}

dag::ValuePtr HistogramSet::merge_values(
    const std::vector<dag::ValuePtr>& inputs) {
  auto out = std::make_shared<HistogramSet>();
  for (const auto& value : inputs) {
    if (!value) continue;
    const auto* set = dynamic_cast<const HistogramSet*>(value.get());
    if (set == nullptr) {
      throw std::invalid_argument("accumulate expects HistogramSet inputs");
    }
    out->merge(*set);
  }
  return out;
}

}  // namespace hepvine::hep
