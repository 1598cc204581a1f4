#include "metrics/cache_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace hepvine::metrics {

std::vector<std::uint64_t> CacheTrace::peak_per_worker() const {
  std::vector<std::uint64_t> peaks(workers_, 0);
  for (const auto& s : samples_) {
    peaks[s.worker] = std::max(peaks[s.worker], s.bytes);
  }
  return peaks;
}

std::uint64_t CacheTrace::global_peak() const {
  std::uint64_t peak = 0;
  for (const auto& s : samples_) peak = std::max(peak, s.bytes);
  return peak;
}

double CacheTrace::peak_skew() const {
  auto peaks = peak_per_worker();
  if (peaks.empty()) return 0.0;
  std::sort(peaks.begin(), peaks.end());
  const std::uint64_t median = peaks[peaks.size() / 2];
  const std::uint64_t maxv = peaks.back();
  if (median == 0) return maxv > 0 ? std::numeric_limits<double>::infinity()
                                   : 1.0;
  return static_cast<double>(maxv) / static_cast<double>(median);
}

std::string CacheTrace::render(Tick horizon, std::size_t width,
                               std::size_t max_rows) const {
  if (workers_ == 0 || samples_.empty()) return "(no cache samples)\n";
  const std::size_t wstride = (workers_ + max_rows - 1) / max_rows;
  const std::size_t rows = (workers_ + wstride - 1) / wstride;
  const Tick tstride = std::max<Tick>(1, horizon / static_cast<Tick>(width));

  // Last-seen usage per (row, column): keep max within bucket.
  std::vector<std::uint64_t> grid(rows * width, 0);
  std::uint64_t maxv = 1;
  for (const auto& s : samples_) {
    const std::size_t row = s.worker / wstride;
    auto col = static_cast<std::size_t>(s.t / tstride);
    if (row >= rows) continue;
    col = std::min(col, width - 1);
    grid[row * width + col] = std::max(grid[row * width + col], s.bytes);
    maxv = std::max(maxv, s.bytes);
  }

  static constexpr char kRamp[] = " .:-=+*#%@";
  const double dmax = static_cast<double>(maxv);
  std::string out;
  char label[48];
  std::snprintf(label, sizeof(label), "cache usage (peak %s)\n",
                util::format_bytes(maxv).c_str());
  out += label;
  std::vector<std::string> lines(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::string line(width, ' ');
    for (std::size_t c = 0; c < width; ++c) {
      const std::uint64_t v = grid[r * width + c];
      if (v) {
        auto level = static_cast<std::size_t>(
            static_cast<double>(v) / dmax * 9.0 + 0.5);
        level = std::clamp<std::size_t>(level, 1, 9);
        line[c] = kRamp[level];
      }
    }
    lines[r] = std::move(line);
  }
  for (const auto& f : failures_) {
    const std::size_t row = f.worker / wstride;
    auto col = static_cast<std::size_t>(f.t / tstride);
    if (row < rows) lines[row][std::min(col, width - 1)] = 'X';
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::snprintf(label, sizeof(label), "w%04zu |", r * wstride);
    out += label + lines[r] + "|\n";
  }
  std::snprintf(label, sizeof(label), "       t=0 .. t=%.0fs, %zu failures\n",
                util::to_seconds(horizon), failures_.size());
  out += label;
  return out;
}

std::string CacheTrace::to_csv() const {
  std::string out = "t_us,worker,bytes\n";
  for (const auto& s : samples_) {
    out += std::to_string(s.t) + "," + std::to_string(s.worker) + "," +
           std::to_string(s.bytes) + "\n";
  }
  return out;
}

}  // namespace hepvine::metrics
