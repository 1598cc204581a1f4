#include "hep/processors.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace hepvine::hep {
namespace {

TEST(DijetMass, BackToBackPairHasMassTwicePt) {
  // Two massless jets, equal pT, opposite phi, same eta:
  // m^2 = 2 pT^2 (1 - cos(pi)) = 4 pT^2 -> m = 2 pT.
  const double m = dijet_mass(50.0f, 0.0f, 0.0f, 50.0f, 0.0f,
                              3.14159265f);
  EXPECT_NEAR(m, 100.0, 0.1);
}

TEST(DijetMass, CollinearPairIsMassless) {
  const double m = dijet_mass(50.0f, 1.0f, 2.0f, 30.0f, 1.0f, 2.0f);
  EXPECT_NEAR(m, 0.0, 1e-3);
}

TEST(Dv3Processor, ProducesExpectedHistograms) {
  const EventChunk chunk = generate_chunk(42, 20'000);
  const HistogramSet out = dv3_process(chunk);
  ASSERT_NE(out.find("met"), nullptr);
  ASSERT_NE(out.find("dijet_mass"), nullptr);
  ASSERT_NE(out.find("n_btag_jets"), nullptr);
  EXPECT_EQ(out.find("met")->entries(), 20'000u);
}

TEST(Dv3Processor, FindsHiggsPeakNear125) {
  const EventChunk chunk = generate_chunk(1234, 200'000);
  const HistogramSet out = dv3_process(chunk);
  const Histogram1D* mass = out.find("dijet_mass");
  ASSERT_NE(mass, nullptr);
  // Find the histogram's modal bin in the 80-200 GeV window; the
  // injected H->bb resonance must put it near 125 GeV.
  const double width =
      (binning::kDijetHi - binning::kDijetLo) / binning::kDijetBins;
  double best_center = 0;
  double best = -1;
  for (std::uint32_t b = 0; b < mass->bins(); ++b) {
    const double center = binning::kDijetLo + width * (b + 0.5);
    if (center < 80.0 || center > 200.0) continue;
    if (mass->bin_content(b) > best) {
      best = mass->bin_content(b);
      best_center = center;
    }
  }
  EXPECT_NEAR(best_center, 125.0, 15.0);
}

TEST(Dv3Processor, DeterministicOnSameChunk) {
  const EventChunk chunk = generate_chunk(7, 5'000);
  EXPECT_EQ(dv3_process(chunk).digest(), dv3_process(chunk).digest());
}

TEST(Dv3Processor, EmptyChunkYieldsEmptyHistograms) {
  const EventChunk chunk = generate_chunk(7, 0);
  const HistogramSet out = dv3_process(chunk);
  EXPECT_DOUBLE_EQ(out.find("met")->integral(), 0.0);
}

TEST(TriphotonProcessor, FindsResonanceNear800) {
  const EventChunk chunk = generate_chunk(555, 400'000);
  const HistogramSet out = triphoton_process(chunk);
  const Histogram1D* mass = out.find("triphoton_mass");
  ASSERT_NE(mass, nullptr);
  EXPECT_GT(mass->integral(), 100.0) << "selection must accept signal";
  // Modal bin in the 400-1600 window sits near the injected 800 GeV.
  const double width = (binning::kTriphotonHi - binning::kTriphotonLo) /
                       binning::kTriphotonBins;
  double best_center = 0;
  double best = -1;
  for (std::uint32_t b = 0; b < mass->bins(); ++b) {
    const double center = binning::kTriphotonLo + width * (b + 0.5);
    if (center < 400.0) continue;
    if (mass->bin_content(b) > best) {
      best = mass->bin_content(b);
      best_center = center;
    }
  }
  EXPECT_NEAR(best_center, 800.0, 120.0);
}

TEST(TriphotonProcessor, SelectionIsRare) {
  const EventChunk chunk = generate_chunk(3, 100'000);
  const HistogramSet out = triphoton_process(chunk);
  // Only the ~0.5% cascade events pass the 3-photon selection.
  EXPECT_LT(out.find("triphoton_mass")->integral(), 2'000.0);
}

TEST(TriphotonProcessor, LeadingPhotonPtIsEnergetic) {
  const EventChunk chunk = generate_chunk(9, 200'000);
  const HistogramSet out = triphoton_process(chunk);
  const Histogram1D* pt = out.find("leading_photon_pt");
  ASSERT_NE(pt, nullptr);
  if (pt->integral() > 0) {
    EXPECT_GT(pt->mean(), 200.0);
  }
}

TEST(Processors, PartialsMergeLikeFullChunk) {
  // Processing two half-chunks and merging must equal processing the
  // concatenation — the property that makes chunked map/accumulate valid.
  const EventChunk half1 = generate_chunk(100, 3'000);
  const EventChunk half2 = generate_chunk(200, 3'000);
  HistogramSet merged = dv3_process(half1);
  merged.merge(dv3_process(half2));

  // Concatenate the two chunks manually.
  EventChunk both = half1;
  both.events += half2.events;
  both.met_pt.insert(both.met_pt.end(), half2.met_pt.begin(),
                     half2.met_pt.end());
  auto append = [](ParticleColumns& dst, const ParticleColumns& src) {
    const auto base = static_cast<std::uint32_t>(dst.pt.size());
    dst.pt.insert(dst.pt.end(), src.pt.begin(), src.pt.end());
    dst.eta.insert(dst.eta.end(), src.eta.begin(), src.eta.end());
    dst.phi.insert(dst.phi.end(), src.phi.begin(), src.phi.end());
    dst.mass.insert(dst.mass.end(), src.mass.begin(), src.mass.end());
    dst.quality.insert(dst.quality.end(), src.quality.begin(),
                       src.quality.end());
    // Skip src's leading 0 offset; rebase the rest.
    for (std::size_t i = 1; i < src.event_offsets.size(); ++i) {
      dst.event_offsets.push_back(base + src.event_offsets[i]);
    }
  };
  append(both.jets, half2.jets);
  append(both.photons, half2.photons);

  EXPECT_EQ(merged.digest(), dv3_process(both).digest());
}

// Differential suite: the streaming sinks behind run_analysis against the
// materialized oracle, dv3_process / triphoton_process(generate_chunk).
class StreamMatchesOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamMatchesOracle, Dv3AndTriphotonDigestsAreEqual) {
  const std::size_t events = GetParam();
  const std::uint64_t seeds = events <= 1'000 ? 1'000 : 20;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const EventChunk chunk = generate_chunk(seed, events);
    ASSERT_EQ(run_analysis(Analysis::kDv3, seed, events).digest(),
              dv3_process(chunk).digest())
        << "DV3, seed " << seed << ", " << events << " events";
    ASSERT_EQ(run_analysis(Analysis::kTriPhoton, seed, events).digest(),
              triphoton_process(chunk).digest())
        << "TriPhoton, seed " << seed << ", " << events << " events";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StreamMatchesOracle,
                         ::testing::Values(0, 1, 7, 100, 500, 1'000,
                                           20'000));

TEST(Processors, StreamFillsTheSignalRegions) {
  // Large chunks where both signals occur: the differential equality above
  // must not be vacuous there.
  const HistogramSet dv3 = run_analysis(Analysis::kDv3, 1234, 200'000);
  EXPECT_GT(dv3.find("cutflow")->bin_content(dv3_cuts::kHiggsWindow), 0.0);
  const HistogramSet tri = run_analysis(Analysis::kTriPhoton, 555, 400'000);
  EXPECT_GT(tri.find("triphoton_mass")->entries(), 0u);
  EXPECT_EQ(dv3.digest(), dv3_process(generate_chunk(1234, 200'000)).digest());
  EXPECT_EQ(tri.digest(),
            triphoton_process(generate_chunk(555, 400'000)).digest());
}

// The physics, not the bits: every histogram of both analyses, summed over
// the chunks named in tests/data/physics_reference.txt, against that
// committed reference from the generator this one replaced.
TEST(PhysicsReference, HistogramsMatchTheReference) {
  constexpr std::uint64_t kChunks = 200;
  constexpr std::size_t kEventsPerChunk = 10'000;
  std::map<std::string, HistogramSet> reference;
  std::ifstream in(PHYSICS_REFERENCE);
  ASSERT_TRUE(in) << PHYSICS_REFERENCE;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string analysis, name;
    std::uint32_t bins = 0;
    double lo = 0, hi = 0, underflow = 0, overflow = 0;
    fields >> analysis >> name >> bins >> lo >> hi >> underflow >> overflow;
    Histogram1D& h = reference[analysis].get(name, bins, lo, hi);
    h.fill_n(lo - 1.0, static_cast<std::uint64_t>(underflow));
    h.fill_n(hi, static_cast<std::uint64_t>(overflow));
    const double width = (hi - lo) / bins;
    for (std::uint32_t b = 0; b < bins; ++b) {
      double count = 0;
      fields >> count;
      h.fill_n(lo + width * (b + 0.5), static_cast<std::uint64_t>(count));
    }
    ASSERT_TRUE(fields) << line.substr(0, 40);
  }
  ASSERT_EQ(reference.size(), 2u);

  for (const Analysis analysis : {Analysis::kDv3, Analysis::kTriPhoton}) {
    HistogramSet now;
    for (std::uint64_t seed = 1; seed <= kChunks; ++seed) {
      now.merge(run_analysis(analysis, seed, kEventsPerChunk));
    }
    const HistogramSet& ref =
        reference[analysis == Analysis::kDv3 ? "dv3" : "triphoton"];
    ASSERT_EQ(now.count(), ref.count());
    for (const auto& [name, expected] : ref.histograms()) {
      const Histogram1D* actual = now.find(name);
      ASSERT_NE(actual, nullptr) << name;
      // Between two samples of one distribution, chi2/dof has mean 1 and
      // standard deviation sqrt(2/dof). The bound is five of those above
      // the mean.
      std::size_t dof = 0;
      for (std::uint32_t b = 0; b < expected.bins(); ++b) {
        dof += expected.bin_content(b) + actual->bin_content(b) > 0 ? 1 : 0;
      }
      ASSERT_GT(dof, 0u) << name;
      EXPECT_LE(chi2_per_dof(expected, *actual),
                1.0 + 5.0 * std::sqrt(2.0 / static_cast<double>(dof)))
          << name << " over " << dof << " bins";
    }
  }
}

TEST(Processors, ProcessorNames) {
  EXPECT_STREQ(processor_name(Analysis::kDv3), "dv3_processor");
  EXPECT_STREQ(processor_name(Analysis::kTriPhoton), "triphoton_processor");
}

}  // namespace
}  // namespace hepvine::hep
