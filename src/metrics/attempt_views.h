// The figure views over a run's attempt record (obs::SpanLog):
//  * task-runtime distributions (Fig 8),
//  * running/waiting concurrency over time (Figs 12, 15),
//  * worker-occupancy charts (Fig 13).
//
// An attempt runs over [exec_at, exec_end_at] when it succeeded: process
// exit frees the core, and the manager's later ingestion is not task time.
// A failed attempt runs until the failure was observed (retrieved_at), from
// dispatched_at when it never started executing. Every attempt waits from
// ready_at until it starts running.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.h"
#include "util/units.h"

namespace hepvine::metrics {

using util::Tick;

/// Start / end of the attempt's running interval (see the file comment).
[[nodiscard]] Tick run_start(const obs::AttemptSpan& a);
[[nodiscard]] Tick run_end(const obs::AttemptSpan& a);

/// Number of failed attempts (RunReport::task_failures).
[[nodiscard]] std::size_t failed_attempts(const obs::SpanLog& log);

/// Concurrency sample: how many attempts run / wait at time t.
struct ConcurrencyPoint {
  Tick t = 0;
  std::int64_t running = 0;
  std::int64_t waiting = 0;  // ready but not yet started
};

/// Sample running/waiting counts every `step` ticks over [0, horizon].
[[nodiscard]] std::vector<ConcurrencyPoint> concurrency_series(
    const obs::SpanLog& log, Tick step, Tick horizon);

/// Peak number of simultaneously running attempts.
[[nodiscard]] std::int64_t peak_concurrency(const obs::SpanLog& log);

/// Fraction of [t0, t1] during which each worker ran at least one attempt;
/// index = worker id. Workers never used have occupancy 0.
[[nodiscard]] std::vector<double> worker_occupancy(const obs::SpanLog& log,
                                                   std::int32_t workers,
                                                   Tick t0, Tick t1);

/// Log-spaced histogram of successful attempts' execution times
/// (exec_end_at - exec_at). Buckets are decades/sub-decades between `lo`
/// and `hi` seconds.
struct TimeBucket {
  double lo_sec = 0;
  double hi_sec = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] std::vector<TimeBucket> exec_time_histogram(
    const obs::SpanLog& log, double lo_sec = 0.01, double hi_sec = 1000.0,
    int buckets_per_decade = 4);

/// Render an ASCII bar chart of the execution-time histogram.
[[nodiscard]] std::string render_histogram(
    const std::vector<TimeBucket>& buckets, std::size_t width = 50);

/// Render worker occupancy as an ASCII strip (one char per worker group).
[[nodiscard]] std::string render_occupancy(
    const std::vector<double>& occupancy, std::size_t width = 64);

/// Render a two-series (running / waiting) ASCII timeline.
[[nodiscard]] std::string render_concurrency(
    const std::vector<ConcurrencyPoint>& series, std::size_t height = 12,
    std::size_t width = 72);

/// Render a single series (e.g. running tasks only) on its own scale.
[[nodiscard]] std::string render_series(const std::vector<double>& values,
                                        double t_end_seconds,
                                        std::size_t height = 10,
                                        std::size_t width = 72,
                                        char mark = '*');

}  // namespace hepvine::metrics
