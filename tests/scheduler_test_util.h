// Shared helpers for scheduler integration tests: small deterministic
// workloads and clusters that run in milliseconds.
#pragma once

#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workloads.h"
#include "cluster/calibration.h"
#include "dag/evaluate.h"
#include "exec/scheduler.h"
#include "hep/histogram.h"
#include "obs/txn_query.h"
#include "util/hash.h"

namespace hepvine::testutil {

/// A small DV3-style workload: `tasks` process tasks over `gb` of input.
inline apps::WorkloadSpec tiny_dv3(std::uint32_t tasks = 24,
                                   std::uint64_t gb = 6) {
  apps::WorkloadSpec spec = apps::dv3_small();
  spec.name = "tiny-dv3";
  spec.process_tasks = tasks;
  spec.input_bytes = gb * util::kGB;
  spec.events_per_chunk = 200;
  spec.process_output_bytes = 30 * util::kMB;
  return spec;
}

/// Cluster with fast batch matching and no preemption unless asked.
inline cluster::ClusterSpec tiny_cluster(std::uint32_t workers = 4,
                                         double preempt_per_hour = 0.0,
                                         std::uint64_t seed = 1) {
  cluster::ClusterSpec spec = cluster::paper_cluster(
      workers, cluster::paper_worker_node(), storage::vast_spec(), seed);
  spec.batch.first_match_delay = util::seconds(0.5);
  spec.batch.match_window = util::seconds(2);
  spec.batch.preemption_rate_per_hour = preempt_per_hour;
  spec.batch.replacement_delay_mean = util::seconds(5);
  return spec;
}

inline exec::RunOptions fast_options() {
  exec::RunOptions options;
  options.seed = 3;
  options.exec_time_jitter = 0.1;
  return options;
}

/// Digest of the single sink result of a report.
inline util::Digest128 sink_digest(const exec::RunReport& report) {
  EXPECT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results.begin()->second != nullptr);
  return report.results.begin()->second->digest();
}

/// Digest of the single sink of a serial evaluation.
inline util::Digest128 reference_digest(const dag::TaskGraph& graph) {
  const auto results = dag::evaluate_serially(graph);
  EXPECT_EQ(results.size(), 1u);
  return results.begin()->second->digest();
}

/// Every `TRANSFER src dst file bytes START` line of a txn log closes
/// exactly once, with DONE or FAILED under the same `src dst file bytes`,
/// and no close comes without a START. Returns the number of transfers
/// seen. Transfers of one key may overlap (the same file fetched twice to
/// one worker), so opens are counted per key.
inline std::size_t expect_transfers_paired(const std::string& txn) {
  std::map<std::string, int> open;
  std::size_t starts = 0;
  std::istringstream in(txn);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tick, subject, src, dst, file, bytes, verb;
    if (!(fields >> tick >> subject) || subject != "TRANSFER") continue;
    fields >> src >> dst >> file >> bytes >> verb;
    int& n = open[src + " " + dst + " " + file + " " + bytes];
    if (verb == "START") {
      ++n;
      ++starts;
      continue;
    }
    EXPECT_TRUE(verb == "DONE" || verb == "FAILED") << line;
    EXPECT_GT(n, 0) << "close without a START: " << line;
    --n;
  }
  for (const auto& [key, n] : open) {
    EXPECT_EQ(n, 0) << "TRANSFER " << key << " never closed";
  }
  return starts;
}

/// The txn CACHE/STORE rollups of a run equal its RunReport tallies. EVICT
/// lines cover both pressure evictions (cache_evictions) and Work Queue
/// sandbox cleanups, which only the sandbox CacheSpans count; LOST lines
/// have only their spans. The run must have captured its txn log.
inline void expect_residency_tally(const exec::RunReport& report) {
  ASSERT_NE(report.observation, nullptr);
  const auto events =
      obs::txnq::parse_log(report.observation->txn().text());
  std::map<char, std::size_t> spans;
  for (const auto& c : report.profile.cache_events()) ++spans[c.verb];
  const auto cs = obs::txnq::cache_summary(events);
  EXPECT_EQ(cs.evictions, report.cache_evictions + spans['S']);
  EXPECT_EQ(spans['E'], report.cache_evictions);
  EXPECT_EQ(cs.gc_drops, report.cache_gc_drops);
  EXPECT_EQ(spans['G'], report.cache_gc_drops);
  EXPECT_EQ(cs.losses, spans['L']);
  const auto ss = obs::txnq::store_summary(events);
  EXPECT_EQ(ss.puts, report.store_puts);
  EXPECT_EQ(ss.put_bytes, report.store_put_bytes);
  EXPECT_EQ(ss.refs, report.store_ref_hits);
  EXPECT_EQ(ss.spills, report.store_spills);
  EXPECT_EQ(ss.spilled_bytes, report.store_spill_bytes);
  EXPECT_EQ(ss.drops, report.store_drops);
}

/// One transfer as a txn log records it: the ticks of its START and of
/// its close (DONE or FAILED, -1 while open) and its `src dst file bytes`.
struct TxnTransfer {
  util::Tick start = -1;
  util::Tick close = -1;
  std::size_t src = 0;
  std::size_t dst = 0;
  std::string file;
  std::string fields;
};

/// Every transfer of a txn log, in START order.
inline std::vector<TxnTransfer> txn_transfers(const std::string& txn) {
  std::vector<TxnTransfer> out;
  std::map<std::string, std::deque<std::size_t>> open;
  std::istringstream in(txn);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tick, subject, verb;
    TxnTransfer x;
    std::string bytes;
    if (!(fields >> tick >> subject) || subject != "TRANSFER") continue;
    fields >> x.src >> x.dst >> x.file >> bytes >> verb;
    x.fields = std::to_string(x.src) + " " + std::to_string(x.dst) + " " +
               x.file + " " + bytes;
    if (verb == "START") {
      x.start = std::stoll(tick);
      open[x.fields].push_back(out.size());
      out.push_back(x);
    } else if (auto& q = open[x.fields]; !q.empty()) {
      out[q.front()].close = std::stoll(tick);
      q.pop_front();
    }
  }
  return out;
}

/// The tick of the first txn line whose fields after the tick are exactly
/// `fields` (e.g. "TRANSFER 2 0 17 1024 START"), or -1.
inline util::Tick txn_tick(const std::string& txn, const std::string& fields) {
  std::istringstream in(txn);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos && line.compare(space + 1, std::string::npos,
                                                   fields) == 0) {
      return std::stoll(line.substr(0, space));
    }
  }
  return -1;
}

}  // namespace hepvine::testutil
