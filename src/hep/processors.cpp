#include "hep/processors.h"

#include <cmath>

namespace hepvine::hep {

double dijet_mass(float pt1, float eta1, float phi1, float pt2, float eta2,
                  float phi2) {
  // m^2 = 2 pT1 pT2 (cosh(deta) - cos(dphi)) for massless constituents.
  const double deta = static_cast<double>(eta1) - static_cast<double>(eta2);
  const double dphi = static_cast<double>(phi1) - static_cast<double>(phi2);
  const double m2 = 2.0 * static_cast<double>(pt1) *
                    static_cast<double>(pt2) *
                    (std::cosh(deta) - std::cos(dphi));
  return m2 > 0 ? std::sqrt(m2) : 0.0;
}

namespace dv3_cuts {
const char* label(std::uint32_t stage) {
  switch (stage) {
    case kAll:
      return "all events";
    case kMet25:
      return "MET > 25 GeV";
    case kTwoBJets:
      return ">= 2 b-tagged jets";
    case kHiggsWindow:
      return "pair in 100-150 GeV";
  }
  return "?";
}
}  // namespace dv3_cuts

namespace {

/// A selected particle's kinematics.
struct Kinematics {
  float pt = 0.0f;
  float eta = 0.0f;
  float phi = 0.0f;
};

/// Fill the mass of every pair of the `n` selected b-jets, and return
/// whether one falls in the Higgs window. The Higgs candidate is any pair:
/// background pairs fill combinatorics, signal pairs pile up near 125 GeV.
bool fill_pair_masses(const Kinematics* jets, std::uint32_t n,
                      Histogram1D& mass) {
  bool in_window = false;
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      const double m = dijet_mass(jets[a].pt, jets[a].eta, jets[a].phi,
                                  jets[b].pt, jets[b].eta, jets[b].phi);
      mass.fill(m);
      in_window |= m > 100.0 && m < 150.0;
    }
  }
  return in_window;
}

/// Invariant mass of the first three selected photons (massless).
double triphoton_mass(const Kinematics* photons) {
  double px = 0, py = 0, pz = 0, energy = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const double pt = photons[i].pt;
    const double eta = photons[i].eta;
    const double phi = photons[i].phi;
    px += pt * std::cos(phi);
    py += pt * std::sin(phi);
    pz += pt * std::sinh(eta);
    energy += pt * std::cosh(eta);
  }
  const double m2 = energy * energy - (px * px + py * py + pz * pz);
  return m2 > 0 ? std::sqrt(m2) : 0.0;
}

}  // namespace

HistogramSet dv3_process(const EventChunk& chunk) {
  using namespace binning;
  HistogramSet out;
  Histogram1D& met = out.get("met", kMetBins, kMetLo, kMetHi);
  Histogram1D& mass = out.get("dijet_mass", kDijetBins, kDijetLo, kDijetHi);
  Histogram1D& njets = out.get("n_btag_jets", 10, 0.0, 10.0);
  Histogram1D& cutflow = out.get("cutflow", dv3_cuts::kStages, 0.0,
                                 static_cast<double>(dv3_cuts::kStages));

  const ParticleColumns& jets = chunk.jets;
  Kinematics selected[16];
  for (std::size_t e = 0; e < chunk.events; ++e) {
    met.fill(chunk.met_pt[e]);
    cutflow.fill(dv3_cuts::kAll);
    if (chunk.met_pt[e] > 25.0f) cutflow.fill(dv3_cuts::kMet25);

    // Select b-tagged jets (quality above working point) with pt > 30.
    std::uint32_t nsel = 0;
    for (std::uint32_t j = jets.begin_of(e); j < jets.end_of(e) && nsel < 16;
         ++j) {
      if (jets.quality[j] > 0.85f && jets.pt[j] > 30.0f) {
        selected[nsel++] = {jets.pt[j], jets.eta[j], jets.phi[j]};
      }
    }
    njets.fill(static_cast<double>(nsel));
    if (nsel >= 2) cutflow.fill(dv3_cuts::kTwoBJets);
    if (fill_pair_masses(selected, nsel, mass)) {
      cutflow.fill(dv3_cuts::kHiggsWindow);
    }
  }
  return out;
}

HistogramSet triphoton_process(const EventChunk& chunk) {
  using namespace binning;
  HistogramSet out;
  Histogram1D& mass =
      out.get("triphoton_mass", kTriphotonBins, kTriphotonLo, kTriphotonHi);
  Histogram1D& lead_pt = out.get("leading_photon_pt", 100, 0.0, 600.0);

  const ParticleColumns& photons = chunk.photons;
  Kinematics selected[8];
  for (std::size_t e = 0; e < chunk.events; ++e) {
    // Select isolated photons with pt > 75.
    std::uint32_t nsel = 0;
    float max_pt = 0.0f;
    for (std::uint32_t g = photons.begin_of(e);
         g < photons.end_of(e) && nsel < 8; ++g) {
      if (photons.quality[g] > 0.9f && photons.pt[g] > 75.0f) {
        selected[nsel++] = {photons.pt[g], photons.eta[g], photons.phi[g]};
        if (photons.pt[g] > max_pt) max_pt = photons.pt[g];
      }
    }
    if (nsel < 3) continue;
    lead_pt.fill(static_cast<double>(max_pt));
    mass.fill(triphoton_mass(selected));
  }
  return out;
}

namespace {

/// dv3_process over the generated events. Cutflow stages and b-jet
/// multiplicities are counted as integers and filled once per chunk.
class Dv3Sink {
 public:
  Dv3Sink()
      : met_(out_.get("met", binning::kMetBins, binning::kMetLo,
                      binning::kMetHi)),
        mass_(out_.get("dijet_mass", binning::kDijetBins, binning::kDijetLo,
                       binning::kDijetHi)) {}

  void met(const Particle& m) {
    const float met = m.pt();
    met_.fill(met);
    stages_[dv3_cuts::kMet25] += met > 25.0f ? 1 : 0;
  }

  void jet(const Particle& p) {
    // The b-tag cut comes first, so pT is computed only for tagged jets.
    if (nsel_ == kMaxSelected || !(p.quality() > 0.85f)) return;
    const float pt = p.pt();
    if (pt > 30.0f) selected_[nsel_++] = {pt, p.eta(), p.phi()};
  }

  void end_event() {
    ++stages_[dv3_cuts::kAll];
    ++btag_jets_[nsel_];
    stages_[dv3_cuts::kTwoBJets] += nsel_ >= 2 ? 1 : 0;
    if (fill_pair_masses(selected_, nsel_, mass_)) {
      ++stages_[dv3_cuts::kHiggsWindow];
    }
    nsel_ = 0;
  }

  HistogramSet take() {
    Histogram1D& njets = out_.get("n_btag_jets", 10, 0.0, 10.0);
    for (std::uint32_t n = 0; n <= kMaxSelected; ++n) {
      njets.fill_n(n, btag_jets_[n]);
    }
    Histogram1D& cutflow = out_.get("cutflow", dv3_cuts::kStages, 0.0,
                                    static_cast<double>(dv3_cuts::kStages));
    for (std::uint32_t stage = 0; stage < dv3_cuts::kStages; ++stage) {
      cutflow.fill_n(stage, stages_[stage]);
    }
    return std::move(out_);
  }

 private:
  static constexpr std::uint32_t kMaxSelected = 16;

  HistogramSet out_;
  Histogram1D& met_;
  Histogram1D& mass_;
  std::uint64_t stages_[dv3_cuts::kStages] = {};
  std::uint64_t btag_jets_[kMaxSelected + 1] = {};
  Kinematics selected_[kMaxSelected];
  std::uint32_t nsel_ = 0;
};

/// triphoton_process over the generated events.
class TriphotonSink {
 public:
  TriphotonSink()
      : mass_(out_.get("triphoton_mass", binning::kTriphotonBins,
                       binning::kTriphotonLo, binning::kTriphotonHi)),
        lead_pt_(out_.get("leading_photon_pt", 100, 0.0, 600.0)) {}

  void photon(const Particle& p) {
    // The isolation cut comes first, so pT is computed only for isolated
    // photons.
    if (nsel_ == kMaxSelected || !(p.quality() > 0.9f)) return;
    const float pt = p.pt();
    if (pt > 75.0f) {
      selected_[nsel_++] = {pt, p.eta(), p.phi()};
      if (pt > max_pt_) max_pt_ = pt;
    }
  }

  void end_event() {
    if (nsel_ >= 3) {
      lead_pt_.fill(static_cast<double>(max_pt_));
      mass_.fill(triphoton_mass(selected_));
    }
    nsel_ = 0;
    max_pt_ = 0.0f;
  }

  HistogramSet take() { return std::move(out_); }

 private:
  static constexpr std::uint32_t kMaxSelected = 8;

  HistogramSet out_;
  Histogram1D& mass_;
  Histogram1D& lead_pt_;
  Kinematics selected_[kMaxSelected];
  std::uint32_t nsel_ = 0;
  float max_pt_ = 0.0f;
};

template <typename Sink>
HistogramSet stream(std::uint64_t seed, std::size_t events) {
  Sink sink;
  generate_events(seed, events, sink);
  return sink.take();
}

}  // namespace

const char* processor_name(Analysis analysis) {
  return analysis == Analysis::kDv3 ? "dv3_processor" : "triphoton_processor";
}

HistogramSet run_analysis(Analysis analysis, std::uint64_t seed,
                          std::size_t events) {
  return analysis == Analysis::kDv3 ? stream<Dv3Sink>(seed, events)
                                    : stream<TriphotonSink>(seed, events);
}

}  // namespace hepvine::hep
