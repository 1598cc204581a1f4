// Synthetic NanoEvents-style columnar event data.
//
// The paper's datasets are CMS ROOT files we cannot ship; instead every
// chunk's content is generated deterministically from its seed (derived
// from dataset name + file + chunk indices), so any re-execution — on any
// worker, after any failure — reproduces identical physics. Layout is
// columnar (structure-of-arrays), mirroring how uproot presents ROOT
// branches to Coffea.
//
// One generator, generate_events, owns the draw sequence and streams
// particles to a sink. The sink declares at compile time which columns it
// reads, and only those columns' transforms run — the way NanoEvents reads
// only the branches a processor touches. generate_chunk is the sink that
// reads every column and materializes the chunk.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "dag/value.h"
#include "sim/rng.h"
#include "util/hash.h"

namespace hepvine::hep {

/// Columns for one particle collection, flattened across events;
/// `event_offsets[i]..event_offsets[i+1]` indexes event i's particles.
struct ParticleColumns {
  std::vector<std::uint32_t> event_offsets;  // size = events + 1
  std::vector<float> pt;
  std::vector<float> eta;
  std::vector<float> phi;
  std::vector<float> mass;
  std::vector<float> quality;  // b-tag score for jets, isolation for photons

  [[nodiscard]] std::size_t count() const noexcept { return pt.size(); }
  [[nodiscard]] std::uint32_t begin_of(std::size_t event) const {
    return event_offsets[event];
  }
  [[nodiscard]] std::uint32_t end_of(std::size_t event) const {
    return event_offsets[event + 1];
  }
};

/// One chunk of events: MET plus jet and photon collections.
struct EventChunk {
  std::uint64_t seed = 0;
  std::size_t events = 0;
  std::vector<float> met_pt;
  ParticleColumns jets;
  ParticleColumns photons;
};

/// Which columns of one particle collection a sink reads.
struct CollectionReads {
  bool pt = false;
  bool eta = false;
  bool phi = false;
  bool mass = false;
  bool quality = false;

  [[nodiscard]] constexpr bool any() const noexcept {
    return pt || eta || phi || mass || quality;
  }
};

/// Which columns of an EventChunk a sink reads.
struct EventReads {
  bool met_pt = false;
  CollectionReads jets;
  CollectionReads photons;
};

/// A transverse momentum whose log() has not run yet: floor + Exp(slope)
/// from the raw uniform draw `u`, truncated to float for platform-stable
/// content. value() is bit-identical to the materialized column.
struct LazyPt {
  double u = 0.0;
  double floor_gev = 0.0;
  double slope_gev = 0.0;

  [[nodiscard]] float value() const noexcept {
    return static_cast<float>(floor_gev +
                              sim::Rng::exponential_from(u, slope_gev));
  }
};

/// One generated particle as a sink receives it. Columns the sink does
/// not read are left at zero, and so is a signal particle's pT floor when
/// the sink does not read pt.
struct Particle {
  LazyPt pt;
  float eta = 0.0f;
  float phi = 0.0f;
  float mass = 0.0f;
  float quality = 0.0f;
};

namespace detail {
inline float uniform_column(bool read, double u, double lo, double hi) {
  return read ? static_cast<float>(sim::Rng::uniform_from(u, lo, hi)) : 0.0f;
}
}  // namespace detail

/// Deterministically generate `events` collision events from `seed` and
/// stream them to `sink`. Kinematics are simplified but structured: jets
/// follow falling pT spectra; a fraction of events carry a Higgs-like
/// dijet resonance at ~125 GeV; a rarer fraction carry a tri-photon
/// cascade resonance.
///
/// Draw-order contract: every raw draw below is taken unconditionally, in
/// its own statement, in the order written, whatever the sink reads — so
/// the stream position after each event, and with it all later content,
/// never depends on the sink. Per particle the order is quality, mass
/// (when drawn), phi, eta, pt.
///
/// `Sink` provides `static constexpr EventReads kReads` and
/// `end_event()`, called after each event's particles; plus
/// `met(const LazyPt&)` if it reads met_pt, `jet(const Particle&)` if it
/// reads any jet column, and `photon(const Particle&)` if it reads any
/// photon column. Per event, met comes first, then jets, then photons.
template <typename Sink>
void generate_events(std::uint64_t seed, std::size_t events, Sink& sink) {
  constexpr EventReads kReads = Sink::kReads;
  constexpr CollectionReads kJet = kReads.jets;
  constexpr CollectionReads kPhoton = kReads.photons;
  constexpr double kTwoPi = 6.283185307179586;
  using detail::uniform_column;
  using sim::Rng;

  Rng rng(seed);
  for (std::size_t e = 0; e < events; ++e) {
    const double u_met = rng.uniform();
    if constexpr (kReads.met_pt) sink.met(LazyPt{u_met, 0.0, 35.0});

    // QCD background jets.
    const std::int64_t njets = rng.uniform_int(2, 6);
    for (std::int64_t j = 0; j < njets; ++j) {
      const double u_quality = rng.uniform();
      const double u_mass = rng.uniform();
      const double u_phi = rng.uniform();
      const double u_eta = rng.uniform();
      const double u_pt = rng.uniform();
      if constexpr (kJet.any()) {
        sink.jet(Particle{LazyPt{u_pt, 20.0, 45.0},
                          uniform_column(kJet.eta, u_eta, -2.5, 2.5),
                          uniform_column(kJet.phi, u_phi, 0.0, kTwoPi),
                          uniform_column(kJet.mass, u_mass, 5.0, 30.0),
                          uniform_column(kJet.quality, u_quality, 0.0, 1.0)});
      }
    }

    // ~3% of events carry a Higgs-like H->bb dijet: two b-tagged jets whose
    // pair mass reconstructs near 125 GeV.
    if (rng.bernoulli(0.03)) {
      const double u_mh1 = rng.uniform();
      const double u_mh2 = rng.uniform();
      const double u_pt1 = rng.uniform();
      const double u_pt2 = rng.uniform();
      double half = 0.0;
      if constexpr (kJet.pt || kJet.mass) {
        half = Rng::normal_from(u_mh1, u_mh2, 125.0, 8.0) / 2.0;
      }
      for (const double u_pt : {u_pt1, u_pt2}) {
        const double u_quality = rng.uniform();
        const double u_phi = rng.uniform();
        const double u_eta = rng.uniform();
        if constexpr (kJet.any()) {
          sink.jet(Particle{LazyPt{u_pt, half, 20.0},
                            uniform_column(kJet.eta, u_eta, -2.0, 2.0),
                            uniform_column(kJet.phi, u_phi, 0.0, kTwoPi),
                            kJet.mass ? static_cast<float>(half) : 0.0f,
                            uniform_column(kJet.quality, u_quality, 0.85,
                                           1.0)});
        }
      }
    }

    // Prompt photons: usually zero or one; 0.5% of events carry the
    // RS-TriPhoton cascade (X -> gamma + Y, Y -> gamma gamma): three
    // energetic isolated photons with a combined mass near 800 GeV.
    if (rng.bernoulli(0.005)) {
      const double u_mx1 = rng.uniform();
      const double u_mx2 = rng.uniform();
      double third = 0.0;
      if constexpr (kPhoton.pt) {
        third = Rng::normal_from(u_mx1, u_mx2, 800.0, 25.0) / 3.0;
      }
      for (int g = 0; g < 3; ++g) {
        const double u_quality = rng.uniform();
        const double u_phi = rng.uniform();
        const double u_eta = rng.uniform();
        const double u_pt = rng.uniform();
        if constexpr (kPhoton.any()) {
          sink.photon(Particle{LazyPt{u_pt, third, 15.0},
                               uniform_column(kPhoton.eta, u_eta, -1.4, 1.4),
                               uniform_column(kPhoton.phi, u_phi, 0.0, kTwoPi),
                               0.0f,
                               uniform_column(kPhoton.quality, u_quality, 0.9,
                                              1.0)});
        }
      }
    } else {
      const std::int64_t nphotons = rng.uniform_int(0, 2);
      for (std::int64_t g = 0; g < nphotons; ++g) {
        const double u_quality = rng.uniform();
        const double u_phi = rng.uniform();
        const double u_eta = rng.uniform();
        const double u_pt = rng.uniform();
        if constexpr (kPhoton.any()) {
          sink.photon(Particle{LazyPt{u_pt, 15.0, 25.0},
                               uniform_column(kPhoton.eta, u_eta, -2.5, 2.5),
                               uniform_column(kPhoton.phi, u_phi, 0.0, kTwoPi),
                               0.0f,
                               uniform_column(kPhoton.quality, u_quality, 0.0,
                                              1.0)});
        }
      }
    }
    sink.end_event();
  }
}

/// Materialize `events` events from `seed`: generate_events with a sink
/// that reads every column.
[[nodiscard]] EventChunk generate_chunk(std::uint64_t seed,
                                        std::size_t events);

/// dag::Value wrapper for a chunk (used when chunks flow between tasks).
class EventChunkValue final : public dag::Value {
 public:
  EventChunkValue(EventChunk chunk, std::uint64_t modeled_bytes)
      : chunk_(std::move(chunk)), modeled_bytes_(modeled_bytes) {}

  [[nodiscard]] const EventChunk& chunk() const noexcept { return chunk_; }
  [[nodiscard]] std::uint64_t byte_size() const override {
    return modeled_bytes_;
  }
  [[nodiscard]] util::Digest128 digest() const override {
    return util::Hasher(0xc4c)
        .update_u64(chunk_.seed)
        .update_u64(chunk_.events)
        .digest();
  }

 private:
  EventChunk chunk_;
  std::uint64_t modeled_bytes_;
};

}  // namespace hepvine::hep
