#include "metrics/attempt_views.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hepvine::metrics {

Tick run_start(const obs::AttemptSpan& a) {
  return a.exec_at != -1 ? a.exec_at : a.dispatched_at;
}

Tick run_end(const obs::AttemptSpan& a) {
  return a.failed ? a.retrieved_at : a.exec_end_at;
}

std::size_t failed_attempts(const obs::SpanLog& log) {
  return static_cast<std::size_t>(
      std::count_if(log.attempts().begin(), log.attempts().end(),
                    [](const obs::AttemptSpan& a) { return a.failed; }));
}

std::vector<ConcurrencyPoint> concurrency_series(const obs::SpanLog& log,
                                                 Tick step, Tick horizon) {
  if (step <= 0) step = util::kSec;
  // Event-sweep: +1 running at start, -1 at end; waiting between ready
  // and start.
  struct Delta {
    Tick t = 0;
    int running = 0;
    int waiting = 0;
  };
  std::vector<Delta> deltas;
  deltas.reserve(log.attempts().size() * 3);
  for (const auto& a : log.attempts()) {
    deltas.push_back({a.ready_at, 0, +1});
    deltas.push_back({run_start(a), +1, -1});
    deltas.push_back({run_end(a), -1, 0});
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const Delta& a, const Delta& b) { return a.t < b.t; });

  std::vector<ConcurrencyPoint> out;
  out.reserve(static_cast<std::size_t>(horizon / step) + 1);
  std::int64_t running = 0;
  std::int64_t waiting = 0;
  std::size_t idx = 0;
  for (Tick t = 0; t <= horizon; t += step) {
    while (idx < deltas.size() && deltas[idx].t <= t) {
      running += deltas[idx].running;
      waiting += deltas[idx].waiting;
      ++idx;
    }
    out.push_back({t, running, std::max<std::int64_t>(waiting, 0)});
  }
  return out;
}

std::int64_t peak_concurrency(const obs::SpanLog& log) {
  struct Delta {
    Tick t = 0;
    int d = 0;
  };
  std::vector<Delta> deltas;
  deltas.reserve(log.attempts().size() * 2);
  for (const auto& a : log.attempts()) {
    deltas.push_back({run_start(a), +1});
    deltas.push_back({run_end(a), -1});
  }
  std::sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.d < b.d;  // process departures first at ties
  });
  std::int64_t cur = 0;
  std::int64_t peak = 0;
  for (const auto& d : deltas) {
    cur += d.d;
    peak = std::max(peak, cur);
  }
  return peak;
}

std::vector<double> worker_occupancy(const obs::SpanLog& log,
                                     std::int32_t workers, Tick t0, Tick t1) {
  std::vector<double> out(static_cast<std::size_t>(std::max(workers, 0)), 0.0);
  if (t1 <= t0 || workers <= 0) return out;
  // Per-worker interval union via sweep.
  std::vector<std::vector<std::pair<Tick, Tick>>> intervals(
      static_cast<std::size_t>(workers));
  for (const auto& a : log.attempts()) {
    if (a.worker < 0 || a.worker >= workers) continue;
    const Tick lo = std::max(run_start(a), t0);
    const Tick hi = std::min(run_end(a), t1);
    if (hi > lo) {
      intervals[static_cast<std::size_t>(a.worker)].emplace_back(lo, hi);
    }
  }
  for (std::size_t w = 0; w < intervals.size(); ++w) {
    auto& ivs = intervals[w];
    std::sort(ivs.begin(), ivs.end());
    Tick covered = 0;
    Tick cur_start = 0;
    Tick cur_end = -1;
    for (const auto& [a, b] : ivs) {
      if (a > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    out[w] = static_cast<double>(covered) / static_cast<double>(t1 - t0);
  }
  return out;
}

std::vector<TimeBucket> exec_time_histogram(const obs::SpanLog& log,
                                            double lo_sec, double hi_sec,
                                            int buckets_per_decade) {
  std::vector<TimeBucket> buckets;
  const double ratio = std::pow(10.0, 1.0 / buckets_per_decade);
  for (double lo = lo_sec; lo < hi_sec; lo *= ratio) {
    buckets.push_back({lo, lo * ratio, 0});
  }
  for (const auto& a : log.attempts()) {
    if (a.failed) continue;
    const double secs = util::to_seconds(a.exec_end_at - a.exec_at);
    for (auto& b : buckets) {
      if (secs >= b.lo_sec && secs < b.hi_sec) {
        ++b.count;
        break;
      }
    }
  }
  return buckets;
}

std::string render_histogram(const std::vector<TimeBucket>& buckets,
                             std::size_t width) {
  std::uint64_t maxc = 1;
  for (const auto& b : buckets) maxc = std::max(maxc, b.count);
  std::string out;
  char line[160];
  for (const auto& b : buckets) {
    if (b.count == 0) continue;
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(b.count) / static_cast<double>(maxc) *
        static_cast<double>(width));
    std::snprintf(line, sizeof(line), "%8.2fs-%8.2fs |%-*s| %llu\n", b.lo_sec,
                  b.hi_sec, static_cast<int>(width),
                  std::string(bar, '#').c_str(),
                  static_cast<unsigned long long>(b.count));
    out += line;
  }
  return out;
}

std::string render_occupancy(const std::vector<double>& occupancy,
                             std::size_t width) {
  static constexpr char kRamp[] = " .:-=+*#%@";
  if (occupancy.empty()) return "(no workers)\n";
  const std::size_t stride = (occupancy.size() + width - 1) / width;
  std::string out = "workers [";
  for (std::size_t g = 0; g * stride < occupancy.size(); ++g) {
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = g * stride;
         i < std::min(occupancy.size(), (g + 1) * stride); ++i, ++n) {
      sum += occupancy[i];
    }
    const double avg = n ? sum / static_cast<double>(n) : 0.0;
    auto level = static_cast<std::size_t>(avg * 9.0 + 0.5);
    level = std::min<std::size_t>(level, 9);
    out += kRamp[level];
  }
  out += "]\n";
  return out;
}

std::string render_series(const std::vector<double>& values,
                          double t_end_seconds, std::size_t height,
                          std::size_t width, char mark) {
  if (values.empty()) return "(no data)\n";
  double maxv = 1.0;
  for (double v : values) maxv = std::max(maxv, v);
  // Proportional bucketing: column c averages points
  // [c*n/cols, (c+1)*n/cols), so any point count fills the full width.
  const std::size_t cols = std::min(width, values.size());
  auto bucket_mean = [&](std::size_t col) {
    const std::size_t begin = col * values.size() / cols;
    std::size_t end = (col + 1) * values.size() / cols;
    end = std::max(end, begin + 1);
    double sum = 0;
    for (std::size_t i = begin; i < end && i < values.size(); ++i) {
      sum += values[i];
    }
    return sum / static_cast<double>(end - begin);
  };
  std::string out;
  for (std::size_t row = 0; row < height; ++row) {
    const double threshold =
        maxv * static_cast<double>(height - row) / static_cast<double>(height);
    std::string line(cols, ' ');
    for (std::size_t col = 0; col < cols; ++col) {
      if (bucket_mean(col) >= threshold) line[col] = mark;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%8.0f |", threshold);
    out += label + line + "\n";
  }
  char footer[120];
  std::snprintf(footer, sizeof(footer), "         +%s\n          t=0 .. t=%.0fs\n",
                std::string(cols, '-').c_str(), t_end_seconds);
  out += footer;
  return out;
}

std::string render_concurrency(const std::vector<ConcurrencyPoint>& series,
                               std::size_t height, std::size_t width) {
  if (series.empty()) return "(no data)\n";
  std::int64_t maxv = 1;
  for (const auto& p : series) {
    maxv = std::max({maxv, p.running, p.waiting});
  }
  const std::size_t cols = std::min(width, series.size());

  auto sample = [&](std::size_t col, bool running) {
    // Proportional bucket average (any point count fills the width).
    const std::size_t begin = col * series.size() / cols;
    std::size_t end = (col + 1) * series.size() / cols;
    end = std::max(end, begin + 1);
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = begin; i < end && i < series.size(); ++i, ++n) {
      sum += static_cast<double>(running ? series[i].running
                                         : series[i].waiting);
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };

  std::string out;
  for (std::size_t row = 0; row < height; ++row) {
    const double threshold = static_cast<double>(maxv) *
                             static_cast<double>(height - row) /
                             static_cast<double>(height);
    std::string line;
    for (std::size_t col = 0; col < cols; ++col) {
      const double r = sample(col, true);
      const double w = sample(col, false);
      char ch = ' ';
      if (r >= threshold && w >= threshold) {
        ch = '*';  // both
      } else if (r >= threshold) {
        ch = 'r';
      } else if (w >= threshold) {
        ch = 'w';
      }
      line += ch;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%7.0f |",
                  static_cast<double>(maxv) *
                      static_cast<double>(height - row) /
                      static_cast<double>(height));
    out += label + line + "\n";
  }
  char footer[128];
  std::snprintf(footer, sizeof(footer),
                "        +%s\n         t=0 .. t=%.0fs  (r=running, "
                "w=waiting, *=both)\n",
                std::string(cols, '-').c_str(),
                util::to_seconds(series.back().t));
  out += footer;
  return out;
}

}  // namespace hepvine::metrics
