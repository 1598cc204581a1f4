// Tests for the observability subsystem: transactions log, stats registry,
// performance log, Chrome-trace export, txn_query reconstruction, and the
// end-to-end round trip through a real scheduler run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "dd/dask_distributed.h"
#include "obs/chrome_trace.h"
#include "obs/observer.h"
#include "obs/perf_log.h"
#include "obs/stats_registry.h"
#include "obs/txn_log.h"
#include "obs/txn_query.h"
#include "scheduler_test_util.h"
#include "vine/vine_scheduler.h"

namespace hepvine {
namespace {

using testutil::fast_options;
using testutil::reference_digest;
using testutil::sink_digest;
using testutil::tiny_cluster;
using testutil::tiny_dv3;

// ---------------------------------------------------------------------------
// TxnLog
// ---------------------------------------------------------------------------

TEST(TxnLog, DisabledLogRecordsNothing) {
  obs::TxnLog log;
  EXPECT_FALSE(log.enabled());
  log.manager_start(0);
  log.task_waiting(1, 7, "proc", 0);
  log.transfer_done(2, 0, 1, 3, 100);
  EXPECT_EQ(log.events(), 0u);
  EXPECT_TRUE(log.text().empty());
}

TEST(TxnLog, RecordsGrammarLines) {
  obs::TxnLog log(64, "");
  log.manager_start(0);
  log.task_waiting(1'000'000, 3, "process", 0);
  log.task_running(2'000'000, 3, 1);
  log.task_retrieved(3'000'000, 3, "SUCCESS");
  log.task_done(3'000'001, 3, "SUCCESS");
  log.worker_connection(500'000, 1);
  log.worker_disconnection(9'000'000, 1, "PREEMPTED");
  log.cache_insert(1'500'000, 1, 42, 1024);
  log.cache_evict(8'000'000, 1, 42, 1024);
  log.cache_gc(8'100'000, 1, 43, 2048);
  log.cache_lost(8'200'000, 1, 44, 4096);
  log.transfer_start(1'100'000, 0, 2, 42, 1024);
  log.transfer_done(1'200'000, 0, 2, 42, 1024);
  log.library_sent(600'000, 1);
  log.library_started(700'000, 1);
  log.manager_end(10'000'000);

  EXPECT_EQ(log.events(), 16u);
  EXPECT_EQ(log.dropped(), 0u);
  const std::string text = log.text();
  EXPECT_NE(text.find("0 MANAGER 0 START"), std::string::npos);
  EXPECT_NE(text.find("1000000 TASK 3 WAITING process 0"), std::string::npos);
  EXPECT_NE(text.find("2000000 TASK 3 RUNNING 1"), std::string::npos);
  EXPECT_NE(text.find("3000000 TASK 3 RETRIEVED SUCCESS"), std::string::npos);
  EXPECT_NE(text.find("3000001 TASK 3 DONE SUCCESS"), std::string::npos);
  EXPECT_NE(text.find("500000 WORKER 1 CONNECTION"), std::string::npos);
  EXPECT_NE(text.find("9000000 WORKER 1 DISCONNECTION PREEMPTED"),
            std::string::npos);
  EXPECT_NE(text.find("1500000 CACHE 42 INSERT 1024 1"), std::string::npos);
  EXPECT_NE(text.find("8000000 CACHE 42 EVICT 1024 1"), std::string::npos);
  EXPECT_NE(text.find("8100000 CACHE 43 GC 2048 1"), std::string::npos);
  EXPECT_NE(text.find("8200000 CACHE 44 LOST 4096 1"), std::string::npos);
  EXPECT_NE(text.find("1100000 TRANSFER 0 2 42 1024 START"),
            std::string::npos);
  EXPECT_NE(text.find("600000 LIBRARY 1 SENT"), std::string::npos);
  EXPECT_NE(text.find("10000000 MANAGER 0 END"), std::string::npos);
}

TEST(TxnLog, RecordsStoreGrammarLines) {
  // The object-store verbs mirror CACHE: subject, file id, verb, bytes,
  // worker — so existing txn tooling parses them without special cases.
  obs::TxnLog log(64, "");
  log.store_put(1'500'000, 1, 42, 1024);
  log.store_ref(1'600'000, 1, 42, 1024);
  log.store_spill(8'000'000, 1, 42, 1024);
  log.store_drop(8'100'000, 2, 43, 2048);

  EXPECT_EQ(log.events(), 4u);
  const std::string text = log.text();
  EXPECT_NE(text.find("1500000 STORE 42 PUT 1024 1"), std::string::npos);
  EXPECT_NE(text.find("1600000 STORE 42 REF 1024 1"), std::string::npos);
  EXPECT_NE(text.find("8000000 STORE 42 SPILL 1024 1"), std::string::npos);
  EXPECT_NE(text.find("8100000 STORE 43 DROP 2048 2"), std::string::npos);
}

TEST(TxnLog, RingRotatesOldestLines) {
  obs::TxnLog log(4, "");
  for (int i = 0; i < 10; ++i) {
    log.task_done(i, i, "SUCCESS");
  }
  EXPECT_EQ(log.events(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto tail = log.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_NE(tail.front().find("TASK 6 DONE"), std::string::npos);
  EXPECT_NE(tail.back().find("TASK 9 DONE"), std::string::npos);
}

TEST(TxnLog, StreamsToFileBeyondRing) {
  const std::string path = testing::TempDir() + "/txn_stream_test.log";
  {
    obs::TxnLog log(2, path);
    for (int i = 0; i < 8; ++i) log.task_done(i, i, "SUCCESS");
    log.flush();
    EXPECT_EQ(log.dropped(), 6u);
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Rotated-out lines are still on disk.
    EXPECT_NE(text.find("TASK 0 DONE"), std::string::npos);
    EXPECT_NE(text.find("TASK 7 DONE"), std::string::npos);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// StatsRegistry
// ---------------------------------------------------------------------------

TEST(StatsRegistry, CountersHaveStablePointers) {
  obs::StatsRegistry reg;
  std::uint64_t* a = reg.counter("a");
  *a = 5;
  // Force growth; the first pointer must stay valid.
  for (int i = 0; i < 100; ++i) {
    *reg.counter("c" + std::to_string(i)) = static_cast<std::uint64_t>(i);
  }
  *a += 1;
  EXPECT_DOUBLE_EQ(reg.value("a"), 6.0);
  EXPECT_EQ(reg.counter("a"), a);  // re-fetch returns the same slot
  EXPECT_EQ(reg.size(), 101u);
}

TEST(StatsRegistry, GaugesSampleLiveStateAndDetach) {
  obs::StatsRegistry reg;
  double live = 1.0;
  reg.gauge("g", [&live] { return live; });
  EXPECT_DOUBLE_EQ(reg.value("g"), 1.0);
  live = 42.0;
  EXPECT_DOUBLE_EQ(reg.value("g"), 42.0);
  reg.detach_gauges();
  live = -7.0;  // must not be visible after detach
  EXPECT_DOUBLE_EQ(reg.value("g"), 42.0);
}

TEST(StatsRegistry, NamesPreserveRegistrationOrder) {
  obs::StatsRegistry reg;
  reg.gauge("z", [] { return 0.0; });
  *reg.counter("a") = 1;
  reg.gauge("m", [] { return 2.0; });
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "z");
  EXPECT_EQ(names[1], "a");
  EXPECT_EQ(names[2], "m");
  const auto values = reg.sample();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[1], 1.0);
}

// ---------------------------------------------------------------------------
// PerfLog
// ---------------------------------------------------------------------------

TEST(PerfLog, SamplesBoundColumns) {
  obs::StatsRegistry reg;
  std::uint64_t* n = reg.counter("n");
  reg.gauge("g", [] { return 3.5; });
  obs::PerfLog perf;
  perf.bind(reg);
  *n = 1;
  perf.sample(1'000'000, reg);
  *n = 4;
  perf.sample(2'000'000, reg);
  ASSERT_EQ(perf.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(perf.final_value("n"), 4.0);
  EXPECT_DOUBLE_EQ(perf.final_value("g"), 3.5);
  EXPECT_DOUBLE_EQ(perf.final_value("missing"), 0.0);

  const std::string text = perf.to_text();
  EXPECT_NE(text.find("# time_us n g"), std::string::npos);
  EXPECT_NE(text.find("1000000 1 3.500000"), std::string::npos);
  EXPECT_NE(text.find("2000000 4 3.500000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ChromeTraceBuilder
// ---------------------------------------------------------------------------

TEST(ChromeTrace, BuildsWellFormedJson) {
  obs::ChromeTraceBuilder trace;
  trace.set_lane_name(0, "manager");
  trace.set_lane_name(1, "worker \"0\"");  // exercises escaping
  trace.add_span(1, "proc", "process", 1'000, 2'000, "{\"task\":7}");
  trace.add_flow(1, 2, "peer file 3", 1'500, 2'500);
  trace.add_counter(0, "tasks", 2'000, 12.0);

  const std::string json = trace.to_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("worker \\\"0\\\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"task\":7}"), std::string::npos);

  // Structural sanity: braces and brackets balance, quotes are paired.
  int braces = 0;
  int brackets = 0;
  int quotes = 0;
  bool escaped = false;
  bool in_string = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      ++quotes;
      continue;
    }
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0);
  EXPECT_FALSE(in_string);
}

TEST(ChromeTrace, ZeroDurationSpansGetMinimumWidth) {
  obs::ChromeTraceBuilder trace;
  trace.add_span(1, "instant", "t", 100, 0);
  EXPECT_NE(trace.to_json().find("\"dur\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// txn_query parsing and reconstruction
// ---------------------------------------------------------------------------

TEST(TxnQuery, ParsesEachLineShape) {
  auto ev = obs::txnq::parse_line("12 TASK 7 WAITING process 0");
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->t, 12);
  EXPECT_EQ(ev->subject, "TASK");
  EXPECT_EQ(ev->id, 7);
  EXPECT_EQ(ev->verb, "WAITING");
  ASSERT_EQ(ev->rest.size(), 2u);
  EXPECT_EQ(ev->rest[0], "process");

  ev = obs::txnq::parse_line("99 TRANSFER 1 2 42 1024 DONE");
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->subject, "TRANSFER");
  EXPECT_EQ(ev->verb, "1");  // endpoints ride in verb/rest for TRANSFER
  ASSERT_EQ(ev->rest.size(), 4u);
  EXPECT_EQ(ev->rest.back(), "DONE");

  EXPECT_FALSE(obs::txnq::parse_line("# comment").has_value());
  EXPECT_FALSE(obs::txnq::parse_line("").has_value());
  EXPECT_FALSE(obs::txnq::parse_line("not a number HERE").has_value());
}

// Regression: FAULT (`time FAULT seq KIND detail`) and NET
// (`time NET flow_id WARN detail`) carry an id-first field. Before the
// subject registry in txn_log.h, subject_has_id() did not know them, so
// the id landed in `verb` and the verb was pushed into `rest`.
TEST(TxnQuery, ParsesFaultAndNetSubjectIds) {
  auto ev = obs::txnq::parse_line("12 FAULT 3 CRASH worker=2");
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->t, 12);
  EXPECT_EQ(ev->subject, "FAULT");
  EXPECT_EQ(ev->id, 3);
  EXPECT_EQ(ev->verb, "CRASH");
  ASSERT_EQ(ev->rest.size(), 1u);
  EXPECT_EQ(ev->rest[0], "worker=2");

  ev = obs::txnq::parse_line("77 NET 5 WARN flow stalled");
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->subject, "NET");
  EXPECT_EQ(ev->id, 5);
  EXPECT_EQ(ev->verb, "WARN");
  ASSERT_EQ(ev->rest.size(), 2u);
}

TEST(TxnLog, SubjectRegistryCoversGrammar) {
  for (const char* s : {"MANAGER", "TASK", "WORKER", "CACHE", "TRANSFER",
                        "LIBRARY", "FAULT", "NET", "STORE"}) {
    EXPECT_TRUE(obs::txn_subject_registered(s)) << s;
  }
  EXPECT_FALSE(obs::txn_subject_registered("ZOMBIE"));
  EXPECT_FALSE(obs::txn_subject_registered(""));

  EXPECT_TRUE(obs::txn_subject_id_first("TASK"));
  EXPECT_TRUE(obs::txn_subject_id_first("FAULT"));
  EXPECT_TRUE(obs::txn_subject_id_first("NET"));
  EXPECT_TRUE(obs::txn_subject_id_first("STORE"));
  // TRANSFER leads with src/dst endpoints, not a single id.
  EXPECT_FALSE(obs::txn_subject_id_first("TRANSFER"));
  EXPECT_FALSE(obs::txn_subject_id_first("ZOMBIE"));
}

TEST(TxnQuery, LooksLikeTxnLogDiscriminatesFormats) {
  // The CLI diagnostics (txn_query profile, vine_profile) use this to tell
  // a transactions log handed to the wrong tool from plain garbage.
  EXPECT_TRUE(obs::txnq::looks_like_txn_log(
      "# time_us SUBJECT id EVENT ...\n"));
  EXPECT_TRUE(obs::txnq::looks_like_txn_log(
      "12 TASK 7 WAITING process 0\n"));
  EXPECT_TRUE(obs::txnq::looks_like_txn_log(
      "0 MANAGER 0 START\n12 TASK 7 WAITING process 0\n"));
  // Span logs, garbage, unknown subjects, and empty input are not txn logs.
  EXPECT_FALSE(obs::txnq::looks_like_txn_log(""));
  EXPECT_FALSE(obs::txnq::looks_like_txn_log("# hepvine spans v1\nRUN 5 1 vine\n"));
  EXPECT_FALSE(obs::txnq::looks_like_txn_log("hello world\nmore garbage\n"));
  EXPECT_FALSE(obs::txnq::looks_like_txn_log("12 ZOMBIE 7 WAITING\n"));
}

TEST(TxnQuery, SpanRecordsAreEmptyOnSpanlessLog) {
  // A pre-profiler txn log parses fine but carries no SPAN lines; the
  // profile CLI must detect this (and error out) rather than emit a
  // zero-filled report.
  const auto events = obs::txnq::parse_log(
      "0 MANAGER 0 START\n"
      "12 TASK 7 WAITING process 0\n"
      "90 TASK 7 DONE ok\n"
      "99 MANAGER 0 END\n");
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(obs::txnq::span_records(events).empty());
}

TEST(TxnQuery, ReconstructsLifetimeAndBreakdown) {
  const std::string log =
      "0 MANAGER 0 START\n"
      "# header comment\n"
      "100 TASK 1 WAITING process 0\n"
      "200 WORKER 0 CONNECTION\n"
      "300 TASK 1 RUNNING 0\n"
      "400 TASK 1 RETRIEVED FAILURE\n"
      "450 TASK 1 WAITING process 1\n"
      "500 TASK 1 RUNNING 2\n"
      "900 TASK 1 RETRIEVED SUCCESS\n"
      "950 TASK 1 DONE SUCCESS\n"
      "960 TASK 2 WAITING accumulate 0\n"
      "970 WORKER 0 DISCONNECTION PREEMPTED\n"
      "1000 MANAGER 0 END\n";
  const auto events = obs::txnq::parse_log(log);

  const auto lt = obs::txnq::task_lifetime(events, 1);
  ASSERT_TRUE(lt.has_value());
  EXPECT_TRUE(lt->complete());
  EXPECT_EQ(lt->category, "process");
  EXPECT_EQ(lt->attempts, 2u);
  EXPECT_EQ(lt->worker, 2);          // final attempt's worker
  EXPECT_EQ(lt->waiting_at, 100);    // first WAITING
  EXPECT_EQ(lt->running_at, 500);    // last RUNNING
  EXPECT_EQ(lt->retrieved_at, 900);
  EXPECT_EQ(lt->done_at, 950);
  EXPECT_EQ(lt->wait_time(), 400);
  EXPECT_EQ(lt->run_time(), 400);

  const auto lt2 = obs::txnq::task_lifetime(events, 2);
  ASSERT_TRUE(lt2.has_value());
  EXPECT_FALSE(lt2->complete());
  EXPECT_FALSE(obs::txnq::task_lifetime(events, 99).has_value());

  const auto breakdown = obs::txnq::category_breakdown(events);
  ASSERT_EQ(breakdown.size(), 1u);  // incomplete task 2 excluded
  const auto& agg = breakdown.at("process");
  EXPECT_EQ(agg.tasks, 1u);
  EXPECT_EQ(agg.attempts, 2u);
  EXPECT_EQ(agg.total_wait, 400);
  EXPECT_EQ(agg.total_run, 400);

  const auto ws = obs::txnq::worker_summary(events);
  EXPECT_EQ(ws.connections, 1u);
  EXPECT_EQ(ws.disconnections_by_reason.at("PREEMPTED"), 1u);

  const std::string rendered = obs::txnq::format_lifetime(*lt);
  EXPECT_NE(rendered.find("task 1 (process), 2 attempt(s)"),
            std::string::npos);
  EXPECT_NE(obs::txnq::format_breakdown(breakdown).find("process"),
            std::string::npos);
}

TEST(TxnQuery, CacheSummaryRollsUpAllFourVerbs) {
  obs::TxnLog log(64, "");
  log.cache_insert(100, 0, 7, 1000);
  log.cache_insert(200, 1, 7, 1000);
  log.cache_evict(300, 0, 7, 1000);
  log.cache_gc(400, 1, 7, 1000);
  log.cache_gc(450, 1, 8, 500);
  log.cache_lost(500, 2, 9, 250);
  const auto events = obs::txnq::parse_log(log.text());

  const auto cs = obs::txnq::cache_summary(events);
  EXPECT_EQ(cs.inserts, 2u);
  EXPECT_EQ(cs.inserted_bytes, 2000u);
  EXPECT_EQ(cs.evictions, 1u);
  EXPECT_EQ(cs.evicted_bytes, 1000u);
  EXPECT_EQ(cs.gc_drops, 2u);
  EXPECT_EQ(cs.gc_bytes, 1500u);
  EXPECT_EQ(cs.losses, 1u);
  EXPECT_EQ(cs.lost_bytes, 250u);

  const std::string rendered = obs::txnq::format_cache_summary(cs);
  EXPECT_NE(rendered.find("INSERT"), std::string::npos);
  EXPECT_NE(rendered.find("EVICT"), std::string::npos);
  EXPECT_NE(rendered.find("GC"), std::string::npos);
  EXPECT_NE(rendered.find("LOST"), std::string::npos);
}

TEST(TxnQuery, StoreSummaryRollsUpAllFourVerbs) {
  obs::TxnLog log(64, "");
  log.store_put(100, 0, 7, 1000);
  log.store_put(150, 1, 8, 500);
  log.store_ref(200, 0, 7, 1000);
  log.store_ref(250, 0, 7, 1000);
  log.store_spill(300, 1, 8, 500);
  log.store_drop(400, 0, 7, 1000);
  const auto events = obs::txnq::parse_log(log.text());

  const auto ss = obs::txnq::store_summary(events);
  EXPECT_EQ(ss.puts, 2u);
  EXPECT_EQ(ss.put_bytes, 1500u);
  EXPECT_EQ(ss.refs, 2u);
  EXPECT_EQ(ss.ref_bytes, 2000u);
  EXPECT_EQ(ss.spills, 1u);
  EXPECT_EQ(ss.spilled_bytes, 500u);
  EXPECT_EQ(ss.drops, 1u);
  EXPECT_EQ(ss.dropped_bytes, 1000u);

  const std::string rendered = obs::txnq::format_store_summary(ss);
  EXPECT_NE(rendered.find("PUT"), std::string::npos);
  EXPECT_NE(rendered.find("REF"), std::string::npos);
  EXPECT_NE(rendered.find("SPILL"), std::string::npos);
  EXPECT_NE(rendered.find("DROP"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a DV3 run with logging enabled round-trips through every sink.
// ---------------------------------------------------------------------------

exec::RunReport run_vine(const dag::TaskGraph& graph, bool observe,
                         const std::string& trace_path = {}) {
  cluster::Cluster cluster(tiny_cluster(4));
  exec::RunOptions options = fast_options();
  options.observability.enabled = observe;
  options.observability.trace_path = trace_path;
  vine::VineScheduler scheduler;
  return scheduler.run(graph, cluster, options);
}

TEST(ObsEndToEnd, VineRunProducesReconstructableLifecycles) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(), 7);
  const exec::RunReport report = run_vine(graph, /*observe=*/true);
  ASSERT_TRUE(report.success);
  ASSERT_TRUE(report.observation != nullptr);
  ASSERT_TRUE(report.observation->enabled());

  const auto& txn = report.observation->txn();
  EXPECT_GT(txn.events(), 0u);
  EXPECT_EQ(txn.dropped(), 0u);  // tiny run fits the default ring

  const auto events = obs::txnq::parse_log(txn.text());
  const auto lifetimes = obs::txnq::all_task_lifetimes(events);
  EXPECT_EQ(lifetimes.size(), graph.size());
  for (const auto& [id, lt] : lifetimes) {
    EXPECT_TRUE(lt.complete()) << "task " << id << " lifecycle incomplete";
    EXPECT_GE(lt.worker, 0);
    EXPECT_LE(lt.waiting_at, lt.running_at);
    EXPECT_LE(lt.running_at, lt.retrieved_at);
    EXPECT_LE(lt.retrieved_at, lt.done_at);
  }

  // The per-category breakdown covers every task exactly once.
  std::size_t tasks_in_breakdown = 0;
  for (const auto& [cat, agg] : obs::txnq::category_breakdown(events)) {
    tasks_in_breakdown += agg.tasks;
  }
  EXPECT_EQ(tasks_in_breakdown, graph.size());

  // Workers connected at least once; the MANAGER START/END frame is there.
  EXPECT_GE(obs::txnq::worker_summary(events).connections, 1u);
  EXPECT_NE(txn.text().find("MANAGER 0 START"), std::string::npos);
  EXPECT_NE(txn.text().find("MANAGER 0 END"), std::string::npos);
}

TEST(ObsEndToEnd, PerfFinalSnapshotMatchesReportTotals) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(), 7);
  const exec::RunReport report = run_vine(graph, /*observe=*/true);
  ASSERT_TRUE(report.success);
  ASSERT_TRUE(report.observation != nullptr);

  const auto& perf = report.observation->perf();
  ASSERT_FALSE(perf.empty());
  EXPECT_DOUBLE_EQ(perf.final_value("tasks.total"),
                   static_cast<double>(report.tasks_total));
  EXPECT_DOUBLE_EQ(perf.final_value("tasks.done"),
                   static_cast<double>(report.tasks_total));
  EXPECT_DOUBLE_EQ(perf.final_value("tasks.inflight"), 0.0);
  EXPECT_GE(perf.final_value("workers.connected"), 1.0);
  EXPECT_GT(perf.final_value("engine.events_executed"), 0.0);
  EXPECT_GT(perf.final_value("manager.ops"), 0.0);
  EXPECT_GT(perf.final_value("net.bytes_completed"), 0.0);
  EXPECT_NEAR(perf.final_value("manager.busy_fraction"),
              report.manager_busy_fraction, 1e-9);
  // Bytes classified by route sum to something positive on this workload.
  EXPECT_GT(perf.final_value("xfer.bytes_via_manager") +
                perf.final_value("xfer.bytes_peer") +
                perf.final_value("xfer.bytes_via_fs"),
            0.0);
  EXPECT_NE(perf.to_text().find("# time_us"), std::string::npos);
}

TEST(ObsEndToEnd, TraceJsonIsWrittenAndLoadable) {
  const std::string path = testing::TempDir() + "/obs_trace_test.json";
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(), 7);
  const exec::RunReport report = run_vine(graph, /*observe=*/true, path);
  ASSERT_TRUE(report.success);
  ASSERT_TRUE(report.observation != nullptr);
  EXPECT_GT(report.observation->trace().events(), 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // task spans
  EXPECT_NE(json.find("process_name"), std::string::npos);  // lane metadata
  std::remove(path.c_str());
}

TEST(ObsEndToEnd, LoggingDoesNotPerturbTheSimulation) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(), 7);
  const exec::RunReport with = run_vine(graph, /*observe=*/true);
  const exec::RunReport without = run_vine(graph, /*observe=*/false);
  ASSERT_TRUE(with.success);
  ASSERT_TRUE(without.success);
  EXPECT_TRUE(without.observation == nullptr);
  EXPECT_EQ(with.makespan, without.makespan);
  EXPECT_EQ(with.task_attempts, without.task_attempts);
  EXPECT_EQ(sink_digest(with), sink_digest(without));
  EXPECT_EQ(sink_digest(with), reference_digest(graph));
}

TEST(ObsEndToEnd, DaskRunEmitsLifecycles) {
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(), 7);
  cluster::Cluster cluster(tiny_cluster(4));
  exec::RunOptions options = fast_options();
  options.observability.enabled = true;
  dd::DaskDistScheduler scheduler;
  const exec::RunReport report = scheduler.run(graph, cluster, options);
  ASSERT_TRUE(report.success);
  ASSERT_TRUE(report.observation != nullptr);

  const auto events =
      obs::txnq::parse_log(report.observation->txn().text());
  const auto lifetimes = obs::txnq::all_task_lifetimes(events);
  EXPECT_EQ(lifetimes.size(), graph.size());
  for (const auto& [id, lt] : lifetimes) {
    EXPECT_TRUE(lt.complete()) << "task " << id;
  }
  const auto& perf = report.observation->perf();
  ASSERT_FALSE(perf.empty());
  EXPECT_DOUBLE_EQ(perf.final_value("tasks.done"),
                   static_cast<double>(report.tasks_total));
}

TEST(ObsEndToEnd, StoreVerbsRoundTripThroughTxnQuery) {
  // A serverless run with the object store on must emit a STORE line for
  // every store transition it reports: puts, by-reference handles,
  // forced spills (remote consumers), and in-memory GC drops all
  // round-trip through parse_log/store_summary. Spilled objects become
  // ordinary cache files, so the CACHE summary sees their inserts too.
  const dag::TaskGraph graph = apps::build_workload(tiny_dv3(), 3);
  cluster::Cluster cluster(tiny_cluster(4));
  exec::RunOptions options = fast_options();
  options.mode = exec::ExecMode::kFunctionCalls;
  options.observability.enabled = true;
  vine::VineTunables tun;
  tun.object_store = true;
  vine::VineScheduler scheduler(vine::taskvine_policy(), tun);
  const exec::RunReport report = scheduler.run(graph, cluster, options);
  ASSERT_TRUE(report.success) << report.failure_reason;
  ASSERT_TRUE(report.observation != nullptr);

  const auto events =
      obs::txnq::parse_log(report.observation->txn().text());
  const auto ss = obs::txnq::store_summary(events);
  EXPECT_EQ(ss.puts, report.store_puts);
  EXPECT_EQ(ss.put_bytes, report.store_put_bytes);
  EXPECT_EQ(ss.refs, report.store_ref_hits);
  EXPECT_EQ(ss.spills, report.store_spills);
  EXPECT_EQ(ss.spilled_bytes, report.store_spill_bytes);
  EXPECT_EQ(ss.drops, report.store_drops);
  EXPECT_GT(ss.puts, 0u);
  EXPECT_GT(ss.spills, 0u);

  // Every object leaves memory exactly once: spilled to disk or dropped
  // by GC/worker loss (never both, never neither).
  EXPECT_EQ(ss.spills + ss.drops, ss.puts);
  const auto cs = obs::txnq::cache_summary(events);
  EXPECT_GE(cs.inserts, ss.spills)
      << "each spill must materialize a cache insert on the holder";
}

}  // namespace
}  // namespace hepvine
