// Per-worker cache (local disk) usage over time, with failure marks —
// the data behind the paper's Fig 11 (single-node vs tree reduction).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace hepvine::metrics {

using util::Tick;

class CacheTrace {
 public:
  CacheTrace() = default;
  explicit CacheTrace(std::size_t workers) : workers_(workers) {}

  void sample(std::size_t worker, Tick t, std::uint64_t bytes_used) {
    if (worker < workers_) samples_.push_back({t, worker, bytes_used});
  }
  void mark_failure(std::size_t worker, Tick t) {
    failures_.push_back({t, worker});
  }
  /// A pressure eviction freed `bytes` on `worker` — the mitigation path
  /// that, when enabled, replaces the failure marks above (Fig 11's
  /// eviction-on ablation).
  void mark_eviction(std::size_t worker, Tick t, std::uint64_t bytes) {
    evictions_.push_back({t, worker, bytes});
  }

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  [[nodiscard]] std::size_t failure_count() const noexcept {
    return failures_.size();
  }
  [[nodiscard]] std::uint64_t evicted_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& e : evictions_) total += e.bytes;
    return total;
  }

  /// Peak usage per worker (bytes); index = worker.
  [[nodiscard]] std::vector<std::uint64_t> peak_per_worker() const;

  /// Global peak across all workers.
  [[nodiscard]] std::uint64_t global_peak() const;

  /// Spread of peaks: max worker peak / median worker peak (>1 means a few
  /// outlier workers accumulate far more than the rest — the failure mode
  /// of single-node reductions).
  [[nodiscard]] double peak_skew() const;

  /// ASCII chart: one line per displayed worker, usage over time bucketed
  /// into `width` columns, 'X' marking failures.
  [[nodiscard]] std::string render(Tick horizon, std::size_t width = 64,
                                   std::size_t max_rows = 20) const;

  [[nodiscard]] std::string to_csv() const;

 private:
  struct Sample {
    Tick t = 0;
    std::size_t worker = 0;
    std::uint64_t bytes = 0;
  };
  struct Failure {
    Tick t = 0;
    std::size_t worker = 0;
  };
  struct Eviction {
    Tick t = 0;
    std::size_t worker = 0;
    std::uint64_t bytes = 0;
  };
  std::size_t workers_ = 0;
  std::vector<Sample> samples_;
  std::vector<Failure> failures_;
  std::vector<Eviction> evictions_;
};

}  // namespace hepvine::metrics
