// The paper's Fig 4 sample application, line for line, in this library's
// front-end API.
//
// Paper (Python):                        Here (C++):
//   dataset = get_dataset("SingleMu")      coffea::Analysis("SingleMu")
//   NanoEventsFactory.from_root(             .files(...)
//     dataset,                               .chunks_per_file(5)
//     uproot_options={"chunks_per_file":5})  .events_per_chunk(...)
//   hda.Hist...fill(events.MET.pt)           .processor(...)  // fills MET
//   manager = DaskVine(...)                  (TaskVine scheduler)
//   manager.compute(                         .compute(cluster, options)
//     peer_transfers=True,                   vine::DataPolicy::peer_transfers
//     task_mode='function-calls',            options.mode = kFunctionCalls
//     lib_resources={'cores':12,...},        node.cores = 12
//     import_modules=[numpy, ...])           options.imports = {...}
#include <cstdio>

#include "cluster/calibration.h"
#include "coffea/analysis.h"
#include "hep/processors.h"
#include "pyrt/python_runtime.h"

using namespace hepvine;

int main() {
  // A custom user-defined processor: histogram MET (what Fig 4's
  // hda.Hist.new.Reg(100, 0, 200, name="met").fill(events.MET.pt) does).
  auto met_processor = [](const hep::EventChunk& events) {
    hep::HistogramSet out;
    hep::Histogram1D& met = out.get("met", 100, 0, 200);
    for (float pt : events.met_pt) met.fill(pt);
    return out;
  };

  exec::RunOptions options;
  // peer_transfers=True: vine::DataPolicy::peer_transfers, on by default
  // in the TaskVine scheduler that Analysis::compute runs.
  options.mode = exec::ExecMode::kFunctionCalls;    // 'function-calls'
  options.hoist_imports = true;                     // import hoisting
  options.imports =
      pyrt::ImportSet{{pyrt::numpy_lib(), pyrt::scipy_lib()}};
  options.seed = 4;

  const coffea::ComputeResult result =
      coffea::Analysis("SingleMu")
          .files(12, 500 * util::kMB)
          .chunks_per_file(5)  // uproot_options={"chunks_per_file": 5}
          .events_per_chunk(5'000)
          .processor("met_histogram", met_processor)
          .processor_costs(2.0, 20 * util::kMB, util::kGB)
          .tree_accumulate(8)
          .seed(4)
          .compute(cluster::paper_cluster(8, cluster::paper_worker_node(),
                                          storage::vast_spec(), 4),
                   options);

  const hep::Histogram1D* met = result.histograms->find("met");
  std::printf("computed MET histogram over %llu events in %.1f simulated "
              "seconds (%s scheduler)\n",
              static_cast<unsigned long long>(met->entries()),
              result.report.makespan_seconds(),
              result.report.scheduler.c_str());
  std::printf("  mean MET %.1f GeV, overflow %.0f\n", met->mean(),
              met->overflow());
  return met->entries() == 12 * 5 * 5'000 ? 0 : 1;
}
