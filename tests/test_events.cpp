#include "hep/events.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <initializer_list>

#include "hep/processors.h"

namespace hepvine::hep {
namespace {

/// Digest over every column of a chunk, float bit patterns included.
util::Digest128 column_digest(const EventChunk& c) {
  util::Hasher h(0xc01);
  h.update_u64(c.seed).update_u64(c.events);
  auto floats = [&h](const std::vector<float>& v) {
    h.update_u64(v.size());
    for (float x : v) h.update_u64(std::bit_cast<std::uint32_t>(x));
  };
  floats(c.met_pt);
  for (const ParticleColumns* p : {&c.jets, &c.photons}) {
    h.update_u64(p->event_offsets.size());
    for (std::uint32_t o : p->event_offsets) h.update_u64(o);
    floats(p->pt);
    floats(p->eta);
    floats(p->phi);
    floats(p->mass);
    floats(p->quality);
  }
  return h.digest();
}

TEST(Events, ContentIsPinned) {
  // Golden digests of generate_chunk's content. Any change to the slot
  // layout, the draw function, a transform, or the float truncation shows
  // up here. The 50k and 60k chunks hold both signal blocks (Higgs dijets
  // and tri-photon cascades).
  struct Golden {
    std::uint64_t seed;
    std::size_t events;
    util::Digest128 digest;
  };
  const Golden goldens[] = {
      {42, 0, {0xda5ecebf5b87bc1aULL, 0x2860799e2c349115ULL}},
      {1, 1, {0xf91971bf40abd1b8ULL, 0x6f82218b3e6a2384ULL}},
      {7, 300, {0xdab771562cdaed4fULL, 0x0d95ba0a7e5998d7ULL}},
      {11, 2000, {0x9a17779254b28612ULL, 0x6edc32a37fe17f37ULL}},
      {123, 50000, {0xbcdbde07c35b84e3ULL, 0x2e7189de902ed24eULL}},
      {2024, 60000, {0x547f19692dd434c5ULL, 0x43eee84932425a22ULL}},
  };
  for (const Golden& g : goldens) {
    EXPECT_EQ(column_digest(generate_chunk(g.seed, g.events)), g.digest)
        << "seed " << g.seed << ", " << g.events << " events";
  }
}

/// Asks for a projection: jet pT and quality, photon eta, no MET.
struct ProjectionSink {
  std::vector<float> jet_pt;
  std::vector<float> jet_quality;
  std::vector<float> photon_eta;
  std::vector<std::uint32_t> jet_offsets{0};
  std::vector<std::uint32_t> photon_offsets{0};

  void jet(const Particle& p) {
    EXPECT_EQ(p.asked, 0);
    jet_pt.push_back(p.pt());
    jet_quality.push_back(p.quality());
    // Eta, phi and mass were never asked for, so their transforms never ran.
    EXPECT_EQ(p.asked,
              Particle::bit(Column::kPt) | Particle::bit(Column::kQuality));
  }
  void photon(const Particle& p) {
    EXPECT_EQ(p.asked, 0);
    photon_eta.push_back(p.eta());
    EXPECT_EQ(p.asked, Particle::bit(Column::kEta));
  }
  void end_event() {
    jet_offsets.push_back(static_cast<std::uint32_t>(jet_pt.size()));
    photon_offsets.push_back(static_cast<std::uint32_t>(photon_eta.size()));
  }
};

TEST(Events, ProjectedColumnsEqualMaterializedOnes) {
  // A sink asking for a few columns sees exactly those columns of the
  // materialized chunk, and the handles it gets run the transforms of
  // those columns only.
  const EventChunk full = generate_chunk(2024, 60'000);
  ProjectionSink sink;
  generate_events(2024, 60'000, sink);
  EXPECT_EQ(sink.jet_pt, full.jets.pt);
  EXPECT_EQ(sink.jet_quality, full.jets.quality);
  EXPECT_EQ(sink.photon_eta, full.photons.eta);
  EXPECT_EQ(sink.jet_offsets, full.jets.event_offsets);
  EXPECT_EQ(sink.photon_offsets, full.photons.event_offsets);
}

TEST(Events, DeterministicForSeed) {
  const EventChunk a = generate_chunk(42, 500);
  const EventChunk b = generate_chunk(42, 500);
  EXPECT_EQ(a.met_pt, b.met_pt);
  EXPECT_EQ(a.jets.pt, b.jets.pt);
  EXPECT_EQ(a.photons.pt, b.photons.pt);
  EXPECT_EQ(a.jets.event_offsets, b.jets.event_offsets);
}

TEST(Events, DifferentSeedsDiffer) {
  const EventChunk a = generate_chunk(1, 500);
  const EventChunk b = generate_chunk(2, 500);
  EXPECT_NE(a.met_pt, b.met_pt);
}

TEST(Events, OffsetsAreConsistent) {
  const EventChunk c = generate_chunk(7, 300);
  ASSERT_EQ(c.jets.event_offsets.size(), 301u);
  ASSERT_EQ(c.photons.event_offsets.size(), 301u);
  EXPECT_EQ(c.jets.event_offsets.front(), 0u);
  EXPECT_EQ(c.jets.event_offsets.back(), c.jets.count());
  for (std::size_t e = 0; e < 300; ++e) {
    EXPECT_LE(c.jets.begin_of(e), c.jets.end_of(e));
    EXPECT_LE(c.photons.begin_of(e), c.photons.end_of(e));
  }
}

TEST(Events, ColumnsHaveUniformLength) {
  const EventChunk c = generate_chunk(7, 200);
  EXPECT_EQ(c.jets.pt.size(), c.jets.eta.size());
  EXPECT_EQ(c.jets.pt.size(), c.jets.phi.size());
  EXPECT_EQ(c.jets.pt.size(), c.jets.mass.size());
  EXPECT_EQ(c.jets.pt.size(), c.jets.quality.size());
  EXPECT_EQ(c.photons.pt.size(), c.photons.quality.size());
}

TEST(Events, EveryEventHasBackgroundJets) {
  const EventChunk c = generate_chunk(11, 500);
  for (std::size_t e = 0; e < c.events; ++e) {
    EXPECT_GE(c.jets.end_of(e) - c.jets.begin_of(e), 2u);
  }
}

TEST(Events, SignalFractionsRoughlyMatch) {
  // ~3% Higgs-like (adds 2 extra jets), ~0.5% tri-photon (3 photons).
  const EventChunk c = generate_chunk(123, 50'000);
  std::size_t triphoton_events = 0;
  for (std::size_t e = 0; e < c.events; ++e) {
    if (c.photons.end_of(e) - c.photons.begin_of(e) >= 3) {
      ++triphoton_events;
    }
  }
  EXPECT_NEAR(static_cast<double>(triphoton_events) / 50'000.0, 0.005,
              0.002);
}

TEST(Events, KinematicsArePhysical) {
  const EventChunk c = generate_chunk(5, 1000);
  for (float met : c.met_pt) EXPECT_GE(met, 0.0f);
  for (float pt : c.jets.pt) EXPECT_GT(pt, 0.0f);
  for (float eta : c.jets.eta) {
    EXPECT_GE(eta, -3.0f);
    EXPECT_LE(eta, 3.0f);
  }
  for (float q : c.jets.quality) {
    EXPECT_GE(q, 0.0f);
    EXPECT_LE(q, 1.0f);
  }
}

TEST(Events, HiggsPairsReconstructTheResonanceMass) {
  // A Higgs jet carries half the resonance mass as its mass (background
  // jets stay below 30 GeV), and the pair's eta and phi put the pair's
  // massless mass at the resonance mass.
  const EventChunk c = generate_chunk(2024, 60'000);
  std::size_t pairs = 0;
  for (std::size_t e = 0; e < c.events; ++e) {
    const std::uint32_t end = c.jets.end_of(e);
    if (end - c.jets.begin_of(e) < 2 || !(c.jets.mass[end - 1] > 30.0f)) {
      continue;
    }
    const std::uint32_t a = end - 2;
    const std::uint32_t b = end - 1;
    ASSERT_EQ(c.jets.mass[a], c.jets.mass[b]);
    EXPECT_NEAR(dijet_mass(c.jets.pt[a], c.jets.eta[a], c.jets.phi[a],
                           c.jets.pt[b], c.jets.eta[b], c.jets.phi[b]),
                2.0 * c.jets.mass[a], 1e-3 * c.jets.mass[a]);
    for (std::uint32_t j : {a, b}) {
      EXPECT_LE(std::abs(c.jets.eta[j]), 2.0f);
      EXPECT_GE(c.jets.phi[j], 0.0f);
      EXPECT_LT(c.jets.phi[j], 6.2831855f);
    }
    ++pairs;
  }
  EXPECT_GT(pairs, 1'500u);  // ~3% of events
}

TEST(Events, ZeroEventsIsValid) {
  const EventChunk c = generate_chunk(1, 0);
  EXPECT_EQ(c.events, 0u);
  EXPECT_EQ(c.jets.count(), 0u);
  ASSERT_EQ(c.jets.event_offsets.size(), 1u);
}

TEST(EventChunkValue, ReportsModeledBytesAndSeedDigest) {
  EventChunkValue a(generate_chunk(9, 100), 5000);
  EventChunkValue b(generate_chunk(9, 100), 5000);
  EventChunkValue c(generate_chunk(10, 100), 5000);
  EXPECT_EQ(a.byte_size(), 5000u);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_EQ(a.chunk().events, 100u);
}

}  // namespace
}  // namespace hepvine::hep
