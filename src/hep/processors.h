// Analysis processors: the user-defined physics functions of the two
// applications the paper reshapes.
//
//  * DV3 searches for Higgs decays to heavy-flavor jet pairs: select
//    b-tagged jets, reconstruct dijet invariant masses, histogram the
//    resonance region plus event-level quantities (MET).
//  * RS-TriPhoton searches for a heavy resonance X -> gamma Y, Y -> gamma
//    gamma: select events with three energetic isolated photons and
//    histogram the tri-photon invariant mass.
//
// These run real math over the synthetic columnar events; schedulers treat
// them as opaque functions.
#pragma once

#include "hep/events.h"
#include "hep/histogram.h"

namespace hepvine::hep {

/// Invariant mass of two massless particles from (pt, eta, phi).
[[nodiscard]] double dijet_mass(float pt1, float eta1, float phi1, float pt2,
                                float eta2, float phi2);

/// DV3 processor: one chunk in, partial histograms out. Alongside the
/// physics histograms it fills a "cutflow" — per-selection-stage event
/// counts (standard HEP bookkeeping, and mergeable like any histogram).
[[nodiscard]] HistogramSet dv3_process(const EventChunk& chunk);

/// DV3 cutflow stages (bin index -> label).
namespace dv3_cuts {
inline constexpr std::uint32_t kAll = 0;
inline constexpr std::uint32_t kMet25 = 1;
inline constexpr std::uint32_t kTwoBJets = 2;
inline constexpr std::uint32_t kHiggsWindow = 3;
inline constexpr std::uint32_t kStages = 4;
[[nodiscard]] const char* label(std::uint32_t stage);
}  // namespace dv3_cuts

/// RS-TriPhoton processor.
[[nodiscard]] HistogramSet triphoton_process(const EventChunk& chunk);

/// The built-in analyses.
enum class Analysis : std::uint8_t { kDv3, kTriPhoton };

/// Function name a built-in analysis's process tasks carry
/// ("dv3_processor", "triphoton_processor").
[[nodiscard]] const char* processor_name(Analysis analysis);

/// Run a built-in analysis over the `events` events of `seed`, streamed
/// from generate_events instead of materialized: only the columns the
/// analysis reads are transformed, and a particle's pT (its log()) only
/// when the selection reaches it. The result's digest equals
/// dv3_process / triphoton_process(generate_chunk(seed, events)), which
/// stay as the differential oracle.
[[nodiscard]] HistogramSet run_analysis(Analysis analysis,
                                        std::uint64_t seed,
                                        std::size_t events);

/// Binning constants shared by processors and tests.
namespace binning {
inline constexpr std::uint32_t kMetBins = 100;
inline constexpr double kMetLo = 0.0;
inline constexpr double kMetHi = 200.0;
inline constexpr std::uint32_t kDijetBins = 125;
inline constexpr double kDijetLo = 0.0;
inline constexpr double kDijetHi = 250.0;
inline constexpr std::uint32_t kTriphotonBins = 160;
inline constexpr double kTriphotonLo = 0.0;
inline constexpr double kTriphotonHi = 1600.0;
}  // namespace binning

}  // namespace hepvine::hep
