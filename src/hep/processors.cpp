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

HistogramSet dv3_process(const EventChunk& chunk) {
  using namespace binning;
  HistogramSet out;
  Histogram1D& met =
      out.get("met", kMetBins, kMetLo, kMetHi);
  Histogram1D& mass =
      out.get("dijet_mass", kDijetBins, kDijetLo, kDijetHi);
  Histogram1D& njets = out.get("n_btag_jets", 10, 0.0, 10.0);
  Histogram1D& cutflow = out.get("cutflow", dv3_cuts::kStages, 0.0,
                                 static_cast<double>(dv3_cuts::kStages));

  for (std::size_t e = 0; e < chunk.events; ++e) {
    met.fill(chunk.met_pt[e]);
    cutflow.fill(dv3_cuts::kAll);
    if (chunk.met_pt[e] > 25.0f) cutflow.fill(dv3_cuts::kMet25);

    // Select b-tagged jets (quality above working point) with pt > 30.
    const std::uint32_t begin = chunk.jets.begin_of(e);
    const std::uint32_t end = chunk.jets.end_of(e);
    std::uint32_t selected[16];
    std::uint32_t nsel = 0;
    for (std::uint32_t j = begin; j < end && nsel < 16; ++j) {
      if (chunk.jets.quality[j] > 0.85f && chunk.jets.pt[j] > 30.0f) {
        selected[nsel++] = j;
      }
    }
    njets.fill(static_cast<double>(nsel));
    if (nsel >= 2) cutflow.fill(dv3_cuts::kTwoBJets);
    // All b-jet pairs: the Higgs candidate is any pair; background pairs
    // fill combinatorics, signal pairs pile up near 125 GeV.
    bool in_window = false;
    for (std::uint32_t a = 0; a < nsel; ++a) {
      for (std::uint32_t b = a + 1; b < nsel; ++b) {
        const std::uint32_t j1 = selected[a];
        const std::uint32_t j2 = selected[b];
        const double m =
            dijet_mass(chunk.jets.pt[j1], chunk.jets.eta[j1],
                       chunk.jets.phi[j1], chunk.jets.pt[j2],
                       chunk.jets.eta[j2], chunk.jets.phi[j2]);
        mass.fill(m);
        in_window |= m > 100.0 && m < 150.0;
      }
    }
    if (in_window) cutflow.fill(dv3_cuts::kHiggsWindow);
  }
  return out;
}

HistogramSet triphoton_process(const EventChunk& chunk) {
  using namespace binning;
  HistogramSet out;
  Histogram1D& mass =
      out.get("triphoton_mass", kTriphotonBins, kTriphotonLo, kTriphotonHi);
  Histogram1D& lead_pt = out.get("leading_photon_pt", 100, 0.0, 600.0);

  for (std::size_t e = 0; e < chunk.events; ++e) {
    const std::uint32_t begin = chunk.photons.begin_of(e);
    const std::uint32_t end = chunk.photons.end_of(e);

    // Select isolated photons with pt > 75.
    std::uint32_t selected[8];
    std::uint32_t nsel = 0;
    float max_pt = 0.0f;
    for (std::uint32_t g = begin; g < end && nsel < 8; ++g) {
      if (chunk.photons.quality[g] > 0.9f && chunk.photons.pt[g] > 75.0f) {
        selected[nsel++] = g;
        if (chunk.photons.pt[g] > max_pt) max_pt = chunk.photons.pt[g];
      }
    }
    if (nsel < 3) continue;
    lead_pt.fill(static_cast<double>(max_pt));

    // Invariant mass of the three leading selected photons (massless).
    double px = 0, py = 0, pz = 0, energy = 0;
    for (std::uint32_t i = 0; i < 3; ++i) {
      const std::uint32_t g = selected[i];
      const double pt = chunk.photons.pt[g];
      const double eta = chunk.photons.eta[g];
      const double phi = chunk.photons.phi[g];
      px += pt * std::cos(phi);
      py += pt * std::sin(phi);
      pz += pt * std::sinh(eta);
      energy += pt * std::cosh(eta);
    }
    const double m2 = energy * energy - (px * px + py * py + pz * pz);
    mass.fill(m2 > 0 ? std::sqrt(m2) : 0.0);
  }
  return out;
}

namespace {

/// A selected particle's kinematics, kept until its event ends.
struct Kinematics {
  float pt = 0.0f;
  float eta = 0.0f;
  float phi = 0.0f;
};

/// dv3_process over the generated stream.
class Dv3Sink {
 public:
  static constexpr EventReads kReads{
      .met_pt = true,
      .jets = {.pt = true, .eta = true, .phi = true, .quality = true},
      .photons = {}};

  Dv3Sink()
      : met_(out_.get("met", binning::kMetBins, binning::kMetLo,
                      binning::kMetHi)),
        mass_(out_.get("dijet_mass", binning::kDijetBins, binning::kDijetLo,
                       binning::kDijetHi)),
        njets_(out_.get("n_btag_jets", 10, 0.0, 10.0)),
        cutflow_(out_.get("cutflow", dv3_cuts::kStages, 0.0,
                          static_cast<double>(dv3_cuts::kStages))) {}

  void met(const LazyPt& lazy) {
    const float met = lazy.value();
    met_.fill(met);
    cutflow_.fill(dv3_cuts::kAll);
    if (met > 25.0f) cutflow_.fill(dv3_cuts::kMet25);
  }

  void jet(const Particle& p) {
    // The b-tag cut comes first, so pT is computed only for tagged jets.
    if (nsel_ == kMaxSelected || !(p.quality > 0.85f)) return;
    const float pt = p.pt.value();
    if (pt > 30.0f) selected_[nsel_++] = {pt, p.eta, p.phi};
  }

  void end_event() {
    njets_.fill(static_cast<double>(nsel_));
    if (nsel_ >= 2) cutflow_.fill(dv3_cuts::kTwoBJets);
    bool in_window = false;
    for (std::uint32_t a = 0; a < nsel_; ++a) {
      for (std::uint32_t b = a + 1; b < nsel_; ++b) {
        const Kinematics& j1 = selected_[a];
        const Kinematics& j2 = selected_[b];
        const double m =
            dijet_mass(j1.pt, j1.eta, j1.phi, j2.pt, j2.eta, j2.phi);
        mass_.fill(m);
        in_window |= m > 100.0 && m < 150.0;
      }
    }
    if (in_window) cutflow_.fill(dv3_cuts::kHiggsWindow);
    nsel_ = 0;
  }

  HistogramSet take() { return std::move(out_); }

 private:
  static constexpr std::uint32_t kMaxSelected = 16;

  HistogramSet out_;
  Histogram1D& met_;
  Histogram1D& mass_;
  Histogram1D& njets_;
  Histogram1D& cutflow_;
  Kinematics selected_[kMaxSelected];
  std::uint32_t nsel_ = 0;
};

/// triphoton_process over the generated stream.
class TriphotonSink {
 public:
  static constexpr EventReads kReads{
      .met_pt = false,
      .jets = {},
      .photons = {.pt = true, .eta = true, .phi = true, .quality = true}};

  TriphotonSink()
      : mass_(out_.get("triphoton_mass", binning::kTriphotonBins,
                       binning::kTriphotonLo, binning::kTriphotonHi)),
        lead_pt_(out_.get("leading_photon_pt", 100, 0.0, 600.0)) {}

  void photon(const Particle& p) {
    // The isolation cut comes first, so pT is computed only for isolated
    // photons.
    if (nsel_ == kMaxSelected || !(p.quality > 0.9f)) return;
    const float pt = p.pt.value();
    if (pt > 75.0f) {
      selected_[nsel_++] = {pt, p.eta, p.phi};
      if (pt > max_pt_) max_pt_ = pt;
    }
  }

  void end_event() {
    if (nsel_ >= 3) {
      lead_pt_.fill(static_cast<double>(max_pt_));
      double px = 0, py = 0, pz = 0, energy = 0;
      for (std::uint32_t i = 0; i < 3; ++i) {
        const double pt = selected_[i].pt;
        const double eta = selected_[i].eta;
        const double phi = selected_[i].phi;
        px += pt * std::cos(phi);
        py += pt * std::sin(phi);
        pz += pt * std::sinh(eta);
        energy += pt * std::cosh(eta);
      }
      const double m2 = energy * energy - (px * px + py * py + pz * pz);
      mass_.fill(m2 > 0 ? std::sqrt(m2) : 0.0);
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
