#include "workloads.h"

#include <algorithm>

#include "apps/workloads.h"
#include "cluster/calibration.h"
#include "dd/dask_distributed.h"
#include "storage/shared_fs.h"
#include "wq/work_queue.h"

namespace perfbench {

namespace hv = hepvine;

namespace {

constexpr std::uint64_t kTable1Seed = 11;
constexpr std::uint64_t kSaturationSeed = 11;
constexpr std::uint64_t kTriphotonSeed = 1;
constexpr std::uint64_t kDaskSeed = 14;

/// The paper benches' facility: `workers` paper nodes on `fs`, cluster
/// seed 1, the default 1%/h preemption.
hv::cluster::ClusterSpec paper_facility(std::uint32_t workers,
                                        const hv::storage::SharedFsSpec& fs) {
  return hv::cluster::paper_cluster(
      workers, hv::cluster::paper_worker_node(), fs, /*seed=*/1);
}

/// Table I (bench_table1_stack_evolution): DV3-Large on the four stack
/// generations, all on one graph.
Workload table1_stacks(std::uint64_t seed, bool reduced) {
  hv::apps::WorkloadSpec spec = hv::apps::dv3_large();
  spec.events_per_chunk = reduced ? 200 : 500;
  if (reduced) {
    spec.process_tasks = 1500;
    spec.input_bytes = 120 * hv::util::kGB;
  }
  const std::uint32_t workers = reduced ? 40 : 200;
  const bool records = !reduced && seed == kTable1Seed;

  Workload w;
  w.name = "table1-stacks";
  w.graphs.push_back(
      [spec, seed] { return hv::apps::build_workload(spec, seed); });

  struct Stack {
    const char* label;
    Sched sched;
    hv::storage::SharedFsSpec fs;
    hv::exec::ExecMode mode;
    double paper_s;
    double record_s;
  };
  const Stack stacks[] = {
      {"stack1 wq+hdfs", Sched::kWorkQueue, hv::storage::hdfs_spec(),
       hv::exec::ExecMode::kStandardTasks, 3545, 3420.3},
      {"stack2 wq+vast", Sched::kWorkQueue, hv::storage::vast_spec(),
       hv::exec::ExecMode::kStandardTasks, 3378, 3414.2},
      {"stack3 vine tasks", Sched::kVine, hv::storage::vast_spec(),
       hv::exec::ExecMode::kStandardTasks, 730, 598.8},
      {"stack4 vine functions", Sched::kVine, hv::storage::vast_spec(),
       hv::exec::ExecMode::kFunctionCalls, 272, 261.2},
  };
  for (const Stack& s : stacks) {
    RunSpec run;
    run.label = s.label;
    run.sched = s.sched;
    run.cluster = paper_facility(workers, s.fs);
    run.options.seed = seed;
    run.options.mode = s.mode;
    run.paper_makespan_s = s.paper_s;
    if (records) run.record = Record{s.record_s, 1};
    w.runs.push_back(std::move(run));
  }
  return w;
}

/// bench_manager_saturation's dispatch-bound graph: `width` short process
/// tasks over shared 8 MB chunks (16 consumers each), folded by an
/// arity-64 tree reduction of scalar sums.
hv::dag::TaskGraph saturation_graph(std::uint32_t width) {
  using hv::dag::ScalarValue;
  using hv::dag::TaskId;
  using hv::dag::TaskSpec;
  using hv::dag::ValuePtr;
  constexpr std::uint32_t kConsumersPerChunk = 16;
  constexpr std::size_t kReduceArity = 64;

  hv::dag::TaskGraph graph;
  const std::uint32_t chunks =
      (width + kConsumersPerChunk - 1) / kConsumersPerChunk;
  std::vector<hv::data::FileId> inputs;
  inputs.reserve(chunks);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    inputs.push_back(graph.add_input_file("chunk" + std::to_string(c),
                                          8 * hv::util::kMB, c + 1));
  }

  std::vector<TaskId> layer;
  layer.reserve(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    TaskSpec spec;
    spec.category = "process";
    spec.function = "process";
    spec.input_files = {inputs[i / kConsumersPerChunk]};
    spec.cpu_seconds = 1.0;
    spec.output_bytes = 2 * hv::util::kMB;
    spec.memory_bytes = 1 * hv::util::kGB;
    const double leaf = static_cast<double>(i % 1024) + 1.0;
    spec.fn = [leaf](const std::vector<ValuePtr>&) -> ValuePtr {
      return std::make_shared<ScalarValue>(leaf);
    };
    layer.push_back(graph.add_task(std::move(spec)));
  }

  while (layer.size() > 1) {
    std::vector<TaskId> next;
    next.reserve(layer.size() / kReduceArity + 1);
    for (std::size_t i = 0; i < layer.size(); i += kReduceArity) {
      TaskSpec spec;
      spec.category = "accumulate";
      spec.function = "accumulate";
      const std::size_t hi = std::min(i + kReduceArity, layer.size());
      spec.deps.assign(layer.begin() + static_cast<std::ptrdiff_t>(i),
                       layer.begin() + static_cast<std::ptrdiff_t>(hi));
      spec.cpu_seconds = 0.4;
      spec.output_bytes = 2 * hv::util::kMB;
      spec.memory_bytes = 1 * hv::util::kGB;
      spec.fn = [](const std::vector<ValuePtr>& in) -> ValuePtr {
        double sum = 0;
        for (const auto& v : in) {
          sum += static_cast<const ScalarValue&>(*v).get();
        }
        return std::make_shared<ScalarValue>(sum);
      };
      next.push_back(graph.add_task(std::move(spec)));
    }
    layer = std::move(next);
  }
  return graph;
}

/// The bench_manager_saturation CI gate point: 600 workers x 100k tasks,
/// cluster seed 7, no preemption, function calls.
Workload saturation(std::uint64_t seed, bool reduced) {
  const std::uint32_t width = reduced ? 10'000 : 100'000;
  Workload w;
  w.name = "saturation-600x100k";
  w.graphs.push_back([width] { return saturation_graph(width); });

  RunSpec run;
  run.label = reduced ? "vine 600w x 10k" : "vine 600w x 100k";
  run.cluster = hv::cluster::paper_cluster(
      600, hv::cluster::paper_worker_node(), hv::storage::vast_spec(),
      /*seed=*/7);
  run.cluster.batch.preemption_rate_per_hour = 0.0;
  run.options.mode = hv::exec::ExecMode::kFunctionCalls;
  run.options.seed = seed;
  if (!reduced && seed == kSaturationSeed) {
    // What bench_manager_saturation prints for this point today. The
    // committed bench/BENCH_manager_saturation.json (164.125 s, 1,255,771
    // events) was written by an earlier simulator and is stale.
    run.record = Record{163.954, 3};
    run.record_attempts = 101'589;
    run.record_events = 1'255'225;
  }
  w.runs.push_back(std::move(run));
  return w;
}

/// bench_objstore's store-on arm: RS-TriPhoton as function calls with the
/// node-local object store on and jitter off, on three consecutive seeds.
Workload triphoton_objstore(std::uint64_t seed, bool reduced) {
  hv::apps::WorkloadSpec spec = hv::apps::rs_triphoton();
  if (reduced) {
    spec.process_tasks = 800;
    spec.datasets = 4;
    spec.input_bytes = 100 * hv::util::kGB;
  }
  const std::uint32_t workers = reduced ? 40 : 200;
  const double records[] = {244.870, 240.319, 254.372};

  Workload w;
  w.name = "triphoton-objstore";
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::uint64_t run_seed = seed + i;
    w.graphs.push_back([spec, run_seed] {
      return hv::apps::build_workload(spec, run_seed);
    });
    RunSpec run;
    run.label = "vine store-on seed " + std::to_string(run_seed);
    run.tunables.object_store = true;
    run.graph = i;
    run.cluster = paper_facility(workers, hv::storage::vast_spec());
    run.options.seed = run_seed;
    run.options.mode = hv::exec::ExecMode::kFunctionCalls;
    run.options.exec_time_jitter = 0.0;
    if (!reduced && seed == kTriphotonSeed) run.record = Record{records[i], 3};
    w.runs.push_back(std::move(run));
  }
  return w;
}

/// Fig 14a's Dask.Distributed arm on DV3-Large (100 events/chunk) at
/// 60-300 cores.
Workload dask_dv3_large(std::uint64_t seed, bool reduced) {
  hv::apps::WorkloadSpec spec = hv::apps::dv3_large();
  spec.events_per_chunk = 100;
  if (reduced) {
    spec.process_tasks = 1500;
    spec.input_bytes = 120 * hv::util::kGB;
  }
  const std::vector<std::uint32_t> cores =
      reduced ? std::vector<std::uint32_t>{60, 120}
              : std::vector<std::uint32_t>{60, 120, 180, 240, 300};

  Workload w;
  w.name = "dask-dv3-large";
  w.graphs.push_back(
      [spec, seed] { return hv::apps::build_workload(spec, seed); });
  for (const std::uint32_t c : cores) {
    RunSpec run;
    run.label = "dd " + std::to_string(c) + " cores";
    run.sched = Sched::kDask;
    run.cluster = paper_facility(c / 12, hv::storage::vast_spec());
    run.options.seed = seed;
    w.runs.push_back(std::move(run));
  }
  return w;
}

}  // namespace

const char* run_span(Sched sched) {
  switch (sched) {
    case Sched::kVine:
      return "vine.run";
    case Sched::kWorkQueue:
      return "wq.run";
    case Sched::kDask:
      return "dd.run";
  }
  return "?.run";
}

namespace {

struct Entry {
  const char* name;
  std::uint64_t default_seed;
  Workload (*build)(std::uint64_t seed, bool reduced);
};

constexpr Entry kWorkloads[] = {
    {"table1-stacks", kTable1Seed, table1_stacks},
    {"saturation-600x100k", kSaturationSeed, saturation},
    {"triphoton-objstore", kTriphotonSeed, triphoton_objstore},
    {"dask-dv3-large", kDaskSeed, dask_dv3_large},
};

const Entry* find(const std::string& name) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Entry& e : kWorkloads) names.emplace_back(e.name);
  return names;
}

std::optional<std::uint64_t> default_seed(const std::string& name) {
  const Entry* e = find(name);
  return e != nullptr ? std::optional<std::uint64_t>(e->default_seed)
                      : std::nullopt;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool reduced) {
  const Entry* e = find(name);
  return e != nullptr ? std::optional<Workload>(e->build(seed, reduced))
                      : std::nullopt;
}

std::unique_ptr<hv::exec::SchedulerBackend> make_backend(const RunSpec& run) {
  switch (run.sched) {
    case Sched::kVine:
      return std::make_unique<hv::vine::VineScheduler>(
          hv::vine::taskvine_policy(), run.tunables);
    case Sched::kWorkQueue:
      return std::make_unique<hv::wq::WorkQueueScheduler>();
    case Sched::kDask:
      return std::make_unique<hv::dd::DaskDistScheduler>();
  }
  return nullptr;
}

}  // namespace perfbench
