// Microbenchmarks of the simulation substrate itself (google-benchmark):
// event-engine throughput, flow-network rate recomputation, histogram
// filling, and synthetic event generation. These bound how large a
// simulated campaign the harness can replay per wall-clock second.
#include <benchmark/benchmark.h>

#include "hep/events.h"
#include "hep/processors.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/rng.h"

namespace {

using namespace hepvine;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(static_cast<util::Tick>(i), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1'000)->Arg(100'000);

void BM_EngineCancelChurn(benchmark::State& state) {
  // The flow network's dominant pattern: schedule, cancel, reschedule.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < n; ++i) {
      auto handle = engine.schedule_at(1'000'000, [] {});
      handle.cancel();
      engine.schedule_at(static_cast<util::Tick>(i), [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EngineCancelChurn)->Arg(100'000);

void BM_NetworkSharedLink(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    net::Network network(engine);
    const net::LinkId hub = network.add_link("hub", 1e10);
    for (int i = 0; i < flows; ++i) {
      network.start_flow({hub}, 1'000'000, 0, [](net::FlowId) {});
    }
    engine.run();
    benchmark::DoNotOptimize(network.flows_completed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) *
                          state.iterations());
}
BENCHMARK(BM_NetworkSharedLink)->Arg(16)->Arg(256)->Arg(2048);

void BM_GenerateChunk(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const hep::EventChunk chunk = hep::generate_chunk(seed++, events);
    benchmark::DoNotOptimize(chunk.jets.pt.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_GenerateChunk)->Arg(1'000)->Arg(10'000);

void BM_Dv3Process(benchmark::State& state) {
  const hep::EventChunk chunk =
      hep::generate_chunk(7, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const hep::HistogramSet out = hep::dv3_process(chunk);
    benchmark::DoNotOptimize(out.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(chunk.events) *
                          state.iterations());
}
BENCHMARK(BM_Dv3Process)->Arg(1'000)->Arg(10'000);

void BM_TriphotonProcess(benchmark::State& state) {
  const hep::EventChunk chunk =
      hep::generate_chunk(7, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const hep::HistogramSet out = hep::triphoton_process(chunk);
    benchmark::DoNotOptimize(out.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(chunk.events) *
                          state.iterations());
}
BENCHMARK(BM_TriphotonProcess)->Arg(1'000)->Arg(10'000);

// Generation plus analysis in one streamed pass (what a process task
// runs): compare with BM_GenerateChunk + BM_Dv3Process / _TriphotonProcess.
void stream_analysis(benchmark::State& state, hep::Analysis analysis) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const hep::HistogramSet out = hep::run_analysis(analysis, seed++, events);
    benchmark::DoNotOptimize(out.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}

void BM_Dv3Stream(benchmark::State& state) {
  stream_analysis(state, hep::Analysis::kDv3);
}
BENCHMARK(BM_Dv3Stream)->Arg(1'000)->Arg(10'000);

void BM_TriphotonStream(benchmark::State& state) {
  stream_analysis(state, hep::Analysis::kTriPhoton);
}
BENCHMARK(BM_TriphotonStream)->Arg(1'000)->Arg(10'000);

void BM_HistogramMerge(benchmark::State& state) {
  hep::Histogram1D a(1'000, 0, 100);
  hep::Histogram1D b(1'000, 0, 100);
  sim::Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    a.fill(rng.uniform(0, 100));
    b.fill(rng.uniform(0, 100));
  }
  for (auto _ : state) {
    hep::Histogram1D merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.integral());
  }
}
BENCHMARK(BM_HistogramMerge);

}  // namespace

BENCHMARK_MAIN();
