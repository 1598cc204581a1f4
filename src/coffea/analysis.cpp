#include "coffea/analysis.h"

#include <stdexcept>
#include <utility>

#include "dag/builders.h"
#include "data/dataset.h"
#include "vine/vine_scheduler.h"

namespace hepvine::coffea {

Analysis::Analysis(std::string dataset_name)
    : name_(std::move(dataset_name)) {}

Analysis& Analysis::files(std::uint32_t count, std::uint64_t bytes) {
  files_ = count;
  file_bytes_ = bytes;
  return *this;
}

Analysis& Analysis::chunks_per_file(std::uint32_t chunks) {
  chunks_per_file_ = chunks;
  return *this;
}

Analysis& Analysis::events_per_chunk(std::uint64_t events) {
  events_per_chunk_ = events;
  return *this;
}

Analysis& Analysis::processor(Processor which) {
  processor_name_ = hep::processor_name(which);
  process_ = [which](std::uint64_t seed, std::uint64_t events) {
    return hep::run_analysis(which, seed, events);
  };
  return *this;
}

Analysis& Analysis::processor(std::string name, ProcessorFn fn) {
  processor_name_ = std::move(name);
  process_ = [fn = std::move(fn)](std::uint64_t seed, std::uint64_t events) {
    return fn(hep::generate_chunk(seed, events));
  };
  return *this;
}

Analysis& Analysis::processor_costs(double cpu_seconds,
                                    std::uint64_t output_bytes,
                                    std::uint64_t memory_bytes) {
  cpu_seconds_ = cpu_seconds;
  output_bytes_ = output_bytes;
  memory_bytes_ = memory_bytes;
  return *this;
}

Analysis& Analysis::tree_accumulate(std::size_t arity) {
  if (arity < 2) throw std::invalid_argument("accumulation arity must be >= 2");
  arity_ = arity;
  return *this;
}

Analysis& Analysis::single_accumulate() {
  arity_ = 0;
  return *this;
}

Analysis& Analysis::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

dag::TaskGraph Analysis::build() const {
  if (!process_) {
    throw std::logic_error("Analysis::processor() must be set before build()");
  }
  dag::TaskGraph graph;
  const data::DatasetSpec dataset = data::make_uniform_dataset(
      name_, files_, file_bytes_, chunks_per_file_, events_per_chunk_);
  const auto chunks = data::register_dataset(dataset, graph.catalog(), seed_);

  std::vector<dag::TaskId> partials;
  partials.reserve(chunks.size());
  for (const data::ChunkRef& chunk : chunks) {
    dag::TaskSpec task;
    task.category = "process";
    task.function = processor_name_;
    task.input_files = {chunk.file_id};
    task.cpu_seconds = cpu_seconds_;
    task.output_bytes = output_bytes_;
    task.memory_bytes = memory_bytes_;
    task.fn = [process = process_, seed = chunk.seed,
               events = chunk.events](const std::vector<dag::ValuePtr>&) {
      return std::make_shared<hep::HistogramSet>(process(seed, events));
    };
    partials.push_back(graph.add_task(std::move(task)));
  }

  if (partials.size() > 1) {
    dag::ReduceSpec reduce;
    reduce.merge = hep::HistogramSet::merge_values;
    reduce.output_bytes_min = output_bytes_;
    reduce.output_scale = 0.0;
    if (arity_ == 0) {
      dag::add_single_reduction(graph, partials, reduce);
    } else {
      dag::add_tree_reduction(graph, partials, arity_, reduce);
    }
  }
  return graph;
}

ComputeResult Analysis::compute(const cluster::ClusterSpec& cluster_spec,
                                const exec::RunOptions& options) const {
  vine::VineScheduler scheduler;
  return compute(scheduler, cluster_spec, options);
}

ComputeResult Analysis::compute(exec::SchedulerBackend& scheduler,
                                const cluster::ClusterSpec& cluster_spec,
                                const exec::RunOptions& options) const {
  const dag::TaskGraph graph = build();
  cluster::Cluster cluster(cluster_spec);
  ComputeResult result;
  result.report = scheduler.run(graph, cluster, options);
  if (!result.report.success) {
    throw std::runtime_error("analysis '" + name_ +
                             "' failed: " + result.report.failure_reason);
  }
  result.histograms = std::dynamic_pointer_cast<const hep::HistogramSet>(
      result.report.results.begin()->second);
  if (!result.histograms) {
    throw std::runtime_error("analysis result is not a HistogramSet");
  }
  return result;
}

}  // namespace hepvine::coffea
