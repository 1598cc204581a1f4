#include "hep/events.h"

#include <gtest/gtest.h>

#include <bit>
#include <initializer_list>

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
  // Golden digests of generate_chunk's content. Any change to the draw
  // order, a transform, or the float truncation shows up here. The 50k
  // and 60k chunks hold both signal blocks (Higgs dijets and tri-photon
  // cascades).
  struct Golden {
    std::uint64_t seed;
    std::size_t events;
    util::Digest128 digest;
  };
  const Golden goldens[] = {
      {42, 0, {0xda5ecebf5b87bc1aULL, 0x2860799e2c349115ULL}},
      {1, 1, {0x116a2b78d129c806ULL, 0x51ef5dfc5bdce784ULL}},
      {7, 300, {0x76d591977734c3fbULL, 0xa64eb946efd7096fULL}},
      {11, 2000, {0x49ef7ac9e6a5e400ULL, 0x5245858e159b6a17ULL}},
      {123, 50000, {0x6f5dd455c277303aULL, 0x3df7de254892ab0aULL}},
      {2024, 60000, {0xdd0e60dc7fea3a1cULL, 0x3c3d9c4ebebd43a9ULL}},
  };
  for (const Golden& g : goldens) {
    EXPECT_EQ(column_digest(generate_chunk(g.seed, g.events)), g.digest)
        << "seed " << g.seed << ", " << g.events << " events";
  }
}

/// Reads a projection: jet pT and quality, photon eta, no MET.
struct ProjectionSink {
  static constexpr EventReads kReads{.met_pt = false,
                                     .jets = {.pt = true, .quality = true},
                                     .photons = {.eta = true}};
  std::vector<float> jet_pt;
  std::vector<float> jet_quality;
  std::vector<float> photon_eta;
  std::vector<std::uint32_t> jet_offsets{0};
  std::vector<std::uint32_t> photon_offsets{0};

  void jet(const Particle& p) {
    jet_pt.push_back(p.pt.value());
    jet_quality.push_back(p.quality);
    EXPECT_EQ(p.eta, 0.0f);  // not read, so not transformed
  }
  void photon(const Particle& p) { photon_eta.push_back(p.eta); }
  void end_event() {
    jet_offsets.push_back(static_cast<std::uint32_t>(jet_pt.size()));
    photon_offsets.push_back(static_cast<std::uint32_t>(photon_eta.size()));
  }
};

TEST(Events, ProjectedColumnsEqualMaterializedOnes) {
  // A sink reading a few columns sees exactly those columns of the
  // materialized chunk: the draws it does not read still advance the
  // stream in the same order.
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
