#include "apps/workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dag/builders.h"
#include "data/dataset.h"
#include "hep/events.h"
#include "hep/histogram.h"
#include "hep/processors.h"
#include "sim/rng.h"
#include "util/hash.h"

namespace hepvine::apps {

namespace {

/// DV3-Huge's skim cut over the generated events. It asks for MET and jet
/// b-tag quality only, holds the event's handles, and materializes an
/// event when it ends kept.
class SkimSink {
 public:
  explicit SkimSink(std::uint64_t seed) : builder_(out_, seed) {}

  void met(const hep::Particle& m) { met_ = m; }
  void jet(const hep::Particle& p) {
    btags_ += p.quality() > 0.85f ? 1 : 0;
    jets_.push_back(p);
  }
  void photon(const hep::Particle& p) { photons_.push_back(p); }
  void end_event() {
    if (btags_ >= 2 || met_.pt() >= 60.0f) {
      builder_.met(met_);
      for (const hep::Particle& p : jets_) builder_.jet(p);
      for (const hep::Particle& p : photons_) builder_.photon(p);
      builder_.end_event();
    }
    btags_ = 0;
    jets_.clear();
    photons_.clear();
  }

  hep::EventChunk take() { return std::move(out_); }

 private:
  hep::EventChunk out_;
  hep::ChunkBuilder builder_;
  hep::Particle met_;
  std::uint32_t btags_ = 0;
  std::vector<hep::Particle> jets_;
  std::vector<hep::Particle> photons_;
};

/// Systematic-variation analysis: re-run the DV3 selection on a skim with a
/// variation-dependent jet-pT threshold and fill variation-tagged
/// histograms.
hep::HistogramSet variation_process(const hep::EventChunk& chunk,
                                    std::uint32_t variation) {
  using namespace hep::binning;
  hep::HistogramSet out;
  const std::string suffix = "_v" + std::to_string(variation);
  hep::Histogram1D& mass =
      out.get("dijet_mass" + suffix, kDijetBins, kDijetLo, kDijetHi);
  const float pt_cut = 25.0f + 2.0f * static_cast<float>(variation);
  for (std::size_t e = 0; e < chunk.events; ++e) {
    std::uint32_t selected[16];
    std::uint32_t nsel = 0;
    for (std::uint32_t j = chunk.jets.begin_of(e);
         j < chunk.jets.end_of(e) && nsel < 16; ++j) {
      if (chunk.jets.quality[j] > 0.85f && chunk.jets.pt[j] > pt_cut) {
        selected[nsel++] = j;
      }
    }
    for (std::uint32_t a = 0; a < nsel; ++a) {
      for (std::uint32_t b = a + 1; b < nsel; ++b) {
        mass.fill(hep::dijet_mass(
            chunk.jets.pt[selected[a]], chunk.jets.eta[selected[a]],
            chunk.jets.phi[selected[a]], chunk.jets.pt[selected[b]],
            chunk.jets.eta[selected[b]], chunk.jets.phi[selected[b]]));
      }
    }
  }
  return out;
}

double lognormal_cpu(sim::Rng& rng, double median, double sigma) {
  return median * std::exp(rng.normal(0.0, sigma));
}

}  // namespace

hep::EventChunk skim_events(std::uint64_t seed, std::size_t events) {
  SkimSink sink(seed);
  hep::generate_events(seed, events, sink);
  return sink.take();
}

WorkloadSpec dv3_small() {
  WorkloadSpec spec;
  spec.name = "DV3-Small";
  spec.process_tasks = 320;
  spec.input_bytes = 25 * util::kGB;
  spec.process_output_bytes = 40 * util::kMB;
  return spec;
}

WorkloadSpec dv3_medium() {
  WorkloadSpec spec;
  spec.name = "DV3-Medium";
  spec.process_tasks = 2'500;
  spec.input_bytes = 200 * util::kGB;
  spec.process_output_bytes = 60 * util::kMB;
  return spec;
}

WorkloadSpec dv3_large() {
  WorkloadSpec spec;
  spec.name = "DV3-Large";
  spec.process_tasks = 15'000;
  spec.input_bytes = 1'200 * util::kGB;
  spec.process_output_bytes = 100 * util::kMB;
  return spec;
}

WorkloadSpec dv3_huge() {
  WorkloadSpec spec;
  spec.name = "DV3-Huge";
  spec.process_tasks = 10'000;  // skims: the 10k initially-runnable tasks
  spec.input_bytes = 1'200 * util::kGB;
  spec.process_cpu_median = 2.0;
  spec.process_output_bytes = 200 * util::kMB;  // skimmed events
  spec.variations = 16;
  spec.variation_cpu_median = 3.0;  // "more extensive computation"
  spec.variation_output_bytes = 20 * util::kMB;
  spec.reduce_arity = 16;
  spec.reduce_output_bytes = 20 * util::kMB;
  return spec;
}

WorkloadSpec rs_triphoton() {
  WorkloadSpec spec;
  spec.name = "RS-TriPhoton";
  spec.analysis = Analysis::kTriPhoton;
  spec.datasets = 20;
  spec.process_tasks = 4'000;
  spec.input_bytes = 500 * util::kGB;
  spec.process_cpu_median = 6.0;
  spec.process_cpu_sigma = 0.4;
  spec.process_output_bytes = 2'600 * util::kMB;  // large partials
  spec.process_memory = 12 * util::kGB;
  spec.reduce_cpu_fixed = 2.0;
  spec.reduce_cpu_per_input = 0.8;
  spec.reduce_output_bytes = 2'800 * util::kMB;
  spec.reduce_memory = 24 * util::kGB;
  return spec;
}

WorkloadSpec with_events(WorkloadSpec spec, std::uint64_t events_per_chunk) {
  spec.events_per_chunk = events_per_chunk;
  return spec;
}

dag::TaskGraph build_workload(const WorkloadSpec& spec, std::uint64_t seed) {
  if (spec.process_tasks == 0 || spec.datasets == 0) {
    throw std::invalid_argument("workload needs tasks and datasets");
  }
  dag::TaskGraph graph;
  sim::Rng cpu_rng(seed, "workload-cpu");

  const std::uint32_t per_dataset =
      std::max<std::uint32_t>(1, spec.process_tasks / spec.datasets);
  const std::uint64_t bytes_per_dataset = spec.input_bytes / spec.datasets;

  dag::ReduceSpec reduce;
  reduce.merge = hep::HistogramSet::merge_values;
  reduce.cpu_seconds_fixed = spec.reduce_cpu_fixed;
  reduce.cpu_seconds_per_input = spec.reduce_cpu_per_input;
  reduce.output_bytes_min = spec.reduce_output_bytes
                                ? spec.reduce_output_bytes
                                : spec.process_output_bytes;
  reduce.output_scale = 0.0;  // merging histograms does not grow them
  reduce.memory_bytes = spec.reduce_memory;

  std::vector<dag::TaskId> dataset_roots;
  dataset_roots.reserve(spec.datasets);

  for (std::uint32_t d = 0; d < spec.datasets; ++d) {
    const std::string ds_name = spec.name + "/ds" + std::to_string(d);
    const std::uint32_t nfiles = std::max<std::uint32_t>(
        1, per_dataset / std::max<std::uint32_t>(1, spec.chunks_per_file));
    const data::DatasetSpec dataset = data::make_uniform_dataset(
        ds_name, nfiles, bytes_per_dataset / nfiles, spec.chunks_per_file,
        spec.events_per_chunk);
    const auto chunks =
        data::register_dataset(dataset, graph.catalog(), seed + d * 1000);

    std::vector<dag::TaskId> partials;
    partials.reserve(chunks.size() * std::max<std::uint32_t>(
                                         1, spec.variations));
    for (const data::ChunkRef& chunk : chunks) {
      dag::TaskSpec process;
      process.category = spec.variations ? "preprocess" : "process";
      process.function = hep::processor_name(spec.analysis);
      process.input_files = {chunk.file_id};
      process.cpu_seconds = lognormal_cpu(cpu_rng, spec.process_cpu_median,
                                          spec.process_cpu_sigma);
      process.output_bytes = spec.process_output_bytes;
      process.memory_bytes = spec.process_memory;

      if (spec.variations == 0) {
        // Plain map phase: chunk -> partial histograms.
        const std::uint64_t chunk_seed = chunk.seed;
        const std::uint64_t events = chunk.events;
        const Analysis analysis = spec.analysis;
        process.fn = [chunk_seed, events,
                      analysis](const std::vector<dag::ValuePtr>&) {
          return std::make_shared<hep::HistogramSet>(
              hep::run_analysis(analysis, chunk_seed, events));
        };
        partials.push_back(graph.add_task(std::move(process)));
      } else {
        // DV3-Huge: skim once, then fan out systematic variations.
        const std::uint64_t chunk_seed = chunk.seed;
        const std::uint64_t events = chunk.events;
        process.fn = [chunk_seed,
                      events](const std::vector<dag::ValuePtr>&) {
          return std::make_shared<hep::EventChunkValue>(
              skim_events(chunk_seed, events), 64 * util::kKiB);
        };
        const dag::TaskId skim = graph.add_task(std::move(process));
        for (std::uint32_t v = 0; v < spec.variations; ++v) {
          dag::TaskSpec var;
          var.category = "variation";
          var.function = "dv3_variation";
          var.deps = {skim};
          var.cpu_seconds = lognormal_cpu(cpu_rng, spec.variation_cpu_median,
                                          spec.process_cpu_sigma);
          var.output_bytes = spec.variation_output_bytes;
          var.memory_bytes = spec.process_memory;
          var.fn = [v](const std::vector<dag::ValuePtr>& inputs) {
            const auto* skim_value =
                dynamic_cast<const hep::EventChunkValue*>(inputs.at(0).get());
            if (skim_value == nullptr) {
              throw std::invalid_argument("variation expects a skim chunk");
            }
            auto out = std::make_shared<hep::HistogramSet>();
            *out = variation_process(skim_value->chunk(), v);
            return out;
          };
          partials.push_back(graph.add_task(std::move(var)));
        }
      }
    }

    // Per-dataset accumulation.
    dag::TaskId root;
    if (partials.size() == 1) {
      root = partials.front();
    } else if (spec.reduction == ReductionShape::kSingleNode) {
      root = dag::add_single_reduction(graph, partials, reduce);
    } else {
      root = dag::add_tree_reduction(graph, partials, spec.reduce_arity,
                                     reduce);
    }
    dataset_roots.push_back(root);
  }

  // Cross-dataset final merge (skipped for a single dataset).
  if (dataset_roots.size() > 1) {
    dag::ReduceSpec final_merge = reduce;
    final_merge.category = "final-merge";
    dag::add_tree_reduction(graph, dataset_roots,
                            std::max<std::size_t>(2, spec.reduce_arity),
                            final_merge);
  }
  return graph;
}

}  // namespace hepvine::apps
