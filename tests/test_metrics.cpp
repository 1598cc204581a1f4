#include <gtest/gtest.h>

#include <sstream>

#include "metrics/cache_trace.h"
#include "metrics/attempt_views.h"
#include "metrics/transfer_matrix.h"
#include "util/units.h"

namespace hepvine::metrics {
namespace {

using util::seconds;

TEST(TransferMatrix, RecordsAndTotals) {
  TransferMatrix m(4);
  m.record(0, 1, 100);
  m.record(0, 2, 50);
  m.record(2, 3, 25);
  EXPECT_EQ(m.at(0, 1), 100u);
  EXPECT_EQ(m.total(), 175u);
  EXPECT_EQ(m.row_total(0), 150u);
  EXPECT_EQ(m.col_total(3), 25u);
  EXPECT_EQ(m.max_pair(), 100u);
}

TEST(TransferMatrix, ManagerVsPeerSplit) {
  // Convention: endpoint 0 = manager, last = shared filesystem.
  TransferMatrix m(4);
  m.record(0, 1, 100);  // manager -> worker
  m.record(1, 0, 40);   // worker -> manager
  m.record(1, 2, 30);   // worker peer transfer
  m.record(3, 2, 20);   // fs -> worker (not peer traffic)
  EXPECT_EQ(m.manager_bytes(), 140u);
  EXPECT_EQ(m.peer_bytes(), 30u);
  EXPECT_EQ(m.between(1, 3), 30u);
}

TEST(TransferMatrix, OutOfRangeIsIgnored) {
  TransferMatrix m(2);
  m.record(5, 1, 100);
  m.record(1, 7, 100);
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.at(9, 9), 0u);
  EXPECT_EQ(m.row_total(9), 0u);
}

TEST(TransferMatrix, AccumulatesRepeatedRecords) {
  TransferMatrix m(2);
  m.record(0, 1, 10);
  m.record(0, 1, 15);
  EXPECT_EQ(m.at(0, 1), 25u);
}

TEST(TransferMatrix, HeatmapAndCsvRender) {
  TransferMatrix m(8);
  m.record(0, 1, 1000000);
  m.record(3, 4, 500);
  const std::string heat = m.render_heatmap(8);
  EXPECT_NE(heat.find("max pair"), std::string::npos);
  const std::string csv = m.to_csv();
  EXPECT_NE(csv.find("0,1,1000000"), std::string::npos);
  EXPECT_NE(csv.find("3,4,500"), std::string::npos);
}

/// One attempt that became ready at `ready`, started executing at `start`
/// and exited (or, when failed, was observed failing) at `finish`.
obs::AttemptSpan span(std::int64_t id, std::int32_t worker, double ready,
                      double start, double finish, bool failed = false) {
  obs::AttemptSpan a;
  a.task = id;
  a.worker = worker;
  a.ready_at = seconds(ready);
  a.dispatched_at = seconds(ready);
  a.exec_at = seconds(start);
  if (failed) {
    a.retrieved_at = seconds(finish);
  } else {
    a.exec_end_at = seconds(finish);
    a.retrieved_at = seconds(finish) + seconds(100.0);  // manager backlog
  }
  a.failed = failed;
  a.category = "test";
  return a;
}

obs::SpanLog log_of(std::initializer_list<obs::AttemptSpan> attempts) {
  obs::SpanLog log;
  for (const auto& a : attempts) log.add_attempt(a);
  return log;
}

TEST(TaskTrace, ConcurrencySeriesCountsRunningAndWaiting) {
  const obs::SpanLog log =
      log_of({span(0, 0, 0.0, 1.0, 5.0), span(1, 1, 0.0, 2.0, 6.0)});
  const auto series = concurrency_series(log, seconds(1.0), seconds(8.0));
  ASSERT_EQ(series.size(), 9u);
  EXPECT_EQ(series[0].waiting, 2);  // both ready, none started
  EXPECT_EQ(series[0].running, 0);
  EXPECT_EQ(series[1].running, 1);  // task 0 started at t=1
  EXPECT_EQ(series[1].waiting, 1);
  EXPECT_EQ(series[3].running, 2);
  EXPECT_EQ(series[5].running, 1);  // task 0 exited at t=5
  EXPECT_EQ(series[7].running, 0);  // ingestion backlog is not running
}

TEST(TaskTrace, PeakConcurrency) {
  const obs::SpanLog log =
      log_of({span(0, 0, 0, 0.0, 10.0), span(1, 1, 0, 2.0, 4.0),
              span(2, 2, 0, 3.0, 5.0)});
  EXPECT_EQ(peak_concurrency(log), 3);
}

TEST(TaskTrace, FailureCounting) {
  const obs::SpanLog log =
      log_of({span(0, 0, 0, 0, 1), span(1, 0, 0, 0, 1, /*failed=*/true)});
  EXPECT_EQ(failed_attempts(log), 1u);
}

TEST(TaskTrace, WorkerOccupancyMeasuresBusyFraction) {
  const obs::SpanLog log = log_of({
      span(0, 0, 0, 0.0, 5.0),   // worker 0 busy 5 of 10 s
      span(1, 1, 0, 0.0, 10.0),  // worker 1 busy all 10 s
  });
  const auto occ = worker_occupancy(log, 3, 0, seconds(10.0));
  ASSERT_EQ(occ.size(), 3u);
  EXPECT_NEAR(occ[0], 0.5, 1e-9);
  EXPECT_NEAR(occ[1], 1.0, 1e-9);
  EXPECT_NEAR(occ[2], 0.0, 1e-9);
}

TEST(TaskTrace, OccupancyMergesOverlappingIntervals) {
  const obs::SpanLog log = log_of({
      span(0, 0, 0, 0.0, 6.0),
      span(1, 0, 0, 4.0, 8.0),  // overlaps the first
  });
  const auto occ = worker_occupancy(log, 1, 0, seconds(10.0));
  EXPECT_NEAR(occ[0], 0.8, 1e-9);
}

TEST(TaskTrace, StagingFailureOccupiesFromDispatch) {
  // Failed while staging inputs: never executed (exec_at == -1), so the
  // core is held from dispatch until the failure was observed.
  obs::AttemptSpan staging = span(0, 0, 0, 0, 0, /*failed=*/true);
  staging.dispatched_at = seconds(2.0);
  staging.exec_at = -1;
  staging.retrieved_at = seconds(6.0);
  const obs::SpanLog log = log_of({staging});
  const auto occ = worker_occupancy(log, 1, 0, seconds(10.0));
  EXPECT_NEAR(occ[0], 0.4, 1e-9);
  EXPECT_EQ(run_start(staging), seconds(2.0));
  EXPECT_EQ(run_end(staging), seconds(6.0));
  const auto series = concurrency_series(log, seconds(1.0), seconds(8.0));
  EXPECT_EQ(series[1].running, 0);
  EXPECT_EQ(series[1].waiting, 1);  // ready at 0, waiting until dispatch
  EXPECT_EQ(series[2].running, 1);
  EXPECT_EQ(series[6].running, 0);
}

TEST(TaskTrace, ExecTimeHistogramBucketsLogarithmically) {
  const obs::SpanLog log = log_of({
      span(0, 0, 0, 0.0, 0.05),  // 0.05 s
      span(1, 0, 0, 0.0, 1.2),   // 1.2 s
      span(2, 0, 0, 0.0, 3.0),   // 3.0 s: same half-decade as 1.2
      span(3, 0, 0, 0.0, 200.0, true),  // failed: excluded
  });
  const auto buckets = exec_time_histogram(log, 0.01, 100.0, 2);
  std::uint64_t total = 0;
  for (const auto& b : buckets) total += b.count;
  EXPECT_EQ(total, 3u);
  // 1.2 and 3.0 s land in the same half-decade bucket [1, 3.16).
  std::uint64_t maxc = 0;
  for (const auto& b : buckets) maxc = std::max(maxc, b.count);
  EXPECT_EQ(maxc, 2u);
}

TEST(TaskTrace, ExecTimeHistogramExcludesFailedAttempts) {
  // A failed attempt that ran 2 s before its worker died shares its
  // bucket with a successful 2 s attempt, but only the success counts —
  // even when the failure carries a process-exit stamp.
  obs::AttemptSpan died = span(1, 0, 0, 0.0, 2.0, /*failed=*/true);
  died.exec_end_at = seconds(2.0);
  const obs::SpanLog log = log_of({span(0, 0, 0, 0.0, 2.0), died});
  const auto buckets = exec_time_histogram(log, 1.0, 10.0, 1);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].count, 1u);
  const obs::SpanLog only_failed = log_of({died});
  EXPECT_EQ(exec_time_histogram(only_failed, 1.0, 10.0, 1)[0].count, 0u);
}

TEST(TaskTrace, RendersProduceNonEmptyOutput) {
  const obs::SpanLog log = log_of({span(0, 0, 0, 0.0, 2.0)});
  const auto buckets = exec_time_histogram(log);
  EXPECT_FALSE(render_histogram(buckets).empty());
  const auto occ = worker_occupancy(log, 4, 0, seconds(2.0));
  EXPECT_FALSE(render_occupancy(occ).empty());
  const auto series = concurrency_series(log, seconds(0.5), seconds(4.0));
  EXPECT_FALSE(render_concurrency(series).empty());
}

TEST(Render, SeriesSpansFullWidthWhenPointsExceedColumns) {
  // Regression: 73 points into 72 columns once collapsed into the left
  // half of the chart. The final samples must land near the right edge.
  std::vector<double> values(73, 5.0);
  const std::string chart = render_series(values, 100.0, 4, 72);
  std::istringstream lines(chart);
  std::string line;
  std::getline(lines, line);  // top row: all at/below threshold boundary
  bool found_tail = false;
  while (std::getline(lines, line)) {
    const auto last = line.find_last_of('*');
    if (last != std::string::npos && last > 60) found_tail = true;
  }
  EXPECT_TRUE(found_tail);
}

TEST(Render, ConcurrencySpansFullWidth) {
  std::vector<ConcurrencyPoint> series;
  for (int i = 0; i <= 72; ++i) {
    series.push_back({seconds(i), 10, 0});
  }
  const std::string chart = render_concurrency(series, 4, 72);
  std::istringstream lines(chart);
  std::string line;
  bool found_tail = false;
  while (std::getline(lines, line)) {
    const auto last = line.find_last_of('r');
    if (last != std::string::npos && last > 60) found_tail = true;
  }
  EXPECT_TRUE(found_tail);
}

TEST(CacheTrace, PeaksAndSkew) {
  CacheTrace cache(4);
  cache.sample(0, seconds(1), 100);
  cache.sample(0, seconds(2), 300);
  cache.sample(1, seconds(1), 100);
  cache.sample(2, seconds(1), 120);
  cache.sample(3, seconds(1), 90);
  const auto peaks = cache.peak_per_worker();
  EXPECT_EQ(peaks[0], 300u);
  EXPECT_EQ(cache.global_peak(), 300u);
  EXPECT_NEAR(cache.peak_skew(), 300.0 / 120.0, 1e-9);
}

TEST(CacheTrace, FailureMarks) {
  CacheTrace cache(2);
  cache.sample(0, seconds(1), 50);
  cache.mark_failure(0, seconds(2));
  EXPECT_EQ(cache.failure_count(), 1u);
  const std::string render = cache.render(seconds(10));
  EXPECT_NE(render.find('X'), std::string::npos);
}

TEST(CacheTrace, OutOfRangeWorkerIgnored) {
  CacheTrace cache(2);
  cache.sample(7, seconds(1), 50);
  EXPECT_EQ(cache.global_peak(), 0u);
}

TEST(Render, HistogramHandlesEmptySinglePointAndAllEqual) {
  // Empty bucket list: must not crash or emit garbage.
  EXPECT_TRUE(render_histogram({}).empty());

  // All-zero counts: rendering is defined (no divide-by-zero on max=0).
  std::vector<TimeBucket> zeros(3);
  zeros[0] = {0.1, 1.0, 0};
  zeros[1] = {1.0, 10.0, 0};
  zeros[2] = {10.0, 100.0, 0};
  const std::string z = render_histogram(zeros);
  EXPECT_EQ(z.find('#'), std::string::npos);

  // Single populated bucket gets the full bar width.
  std::vector<TimeBucket> one(1);
  one[0] = {1.0, 10.0, 7};
  const std::string s = render_histogram(one, 10);
  EXPECT_NE(s.find("##########"), std::string::npos);

  // All-equal counts: every bucket renders an identical full-width bar.
  std::vector<TimeBucket> eq(3);
  eq[0] = {0.1, 1.0, 5};
  eq[1] = {1.0, 10.0, 5};
  eq[2] = {10.0, 100.0, 5};
  const std::string e = render_histogram(eq, 8);
  std::istringstream lines(e);
  std::string line;
  int full = 0;
  while (std::getline(lines, line)) {
    if (line.find("########") != std::string::npos) ++full;
  }
  EXPECT_EQ(full, 3);
}

// The chart body is everything before the axis line (the footer legend
// itself contains 'r'/'w'/'*' characters, so marks must be counted in the
// body only).
std::string chart_body(const std::string& chart) {
  const auto axis = chart.find("+--");
  return axis == std::string::npos ? chart : chart.substr(0, axis);
}

TEST(Render, ConcurrencyHandlesEmptySinglePointAndAllEqual) {
  // Empty series renders a placeholder (and does not crash).
  EXPECT_EQ(render_concurrency({}), "(no data)\n");

  // A single point must produce a chart with a running mark in the body.
  std::vector<ConcurrencyPoint> single = {{seconds(1), 3, 1}};
  const std::string s = render_concurrency(single, 4, 20);
  EXPECT_NE(chart_body(s).find('r'), std::string::npos);

  // All-equal running/waiting: flat line, rendered as '*' (both series),
  // with no divide-by-zero on the value range.
  std::vector<ConcurrencyPoint> flat;
  for (int i = 0; i < 10; ++i) flat.push_back({seconds(i), 4, 4});
  const std::string f = render_concurrency(flat, 4, 20);
  EXPECT_NE(chart_body(f).find('*'), std::string::npos);

  // All-zero values: defined output, no marks above the axis.
  std::vector<ConcurrencyPoint> zero;
  for (int i = 0; i < 10; ++i) zero.push_back({seconds(i), 0, 0});
  const std::string body = chart_body(render_concurrency(zero, 4, 20));
  EXPECT_EQ(body.find('r'), std::string::npos);
  EXPECT_EQ(body.find('w'), std::string::npos);
  EXPECT_EQ(body.find('*'), std::string::npos);
}

TEST(Render, SeriesHandlesEmptySinglePointAndAllEqual) {
  // Empty input renders a placeholder.
  EXPECT_EQ(render_series({}, 10.0), "(no data)\n");

  // Single point: chart exists and carries exactly the one mark column.
  const std::string s = render_series({5.0}, 10.0, 4, 20);
  EXPECT_FALSE(s.empty());
  EXPECT_NE(s.find('*'), std::string::npos);

  // All-equal values: flat series must not divide by a zero range.
  const std::string f = render_series(std::vector<double>(16, 2.5), 10.0, 4, 20);
  EXPECT_FALSE(f.empty());
  EXPECT_NE(f.find('*'), std::string::npos);

  // All-zero values: defined, no marks.
  const std::string z = render_series(std::vector<double>(16, 0.0), 10.0, 4, 20);
  EXPECT_EQ(z.find('*'), std::string::npos);
}

}  // namespace
}  // namespace hepvine::metrics
