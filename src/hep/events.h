// Synthetic NanoEvents-style columnar event data.
//
// The paper's datasets are CMS ROOT files we cannot ship; instead every
// chunk's content is a pure function of its seed (derived from dataset
// name + file + chunk indices), so any re-execution — on any worker, after
// any failure — reproduces identical physics. Layout is columnar
// (structure-of-arrays), mirroring how uproot presents ROOT branches to
// Coffea.
//
// Content is random-access, in the style of counter-based generators
// (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3"): every raw
// draw is draw(key, event, slot), a pure function of the chunk's key, the
// event index and a slot of the fixed per-event layout in `slots`. Nothing
// is drawn in sequence, so a draw nobody reads costs nothing.
// generate_events hands a sink lazy handles — the way NanoEvents reads
// only the branches a processor touches, a column's transform runs only
// when the sink asks for that column. The one column that reads others is
// the second Higgs jet's eta and phi, which close the pair at its mass
// (Particle::close_pair). ChunkBuilder asks for every column and
// materializes the chunk; generate_chunk runs it.
#pragma once

#include <cstdint>
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

/// The per-event slot layout. A particle owns kParticle consecutive slots,
/// one per Column; each block starts where the one above it ends.
///
///   slot  0       MET
///   slot  1       njets
///   slots 2-31    background jets, 5 per jet
///   slot  32      Higgs Bernoulli; 33-34 its mass; 35-44 its two jets
///   slot  45      tri-photon Bernoulli; 46-47 its mass, or 46 nphotons;
///                 48-62 its three photons, or the prompt photons
namespace slots {
inline constexpr std::uint32_t kStride = 64;
inline constexpr std::uint32_t kParticle = 5;
inline constexpr std::uint32_t kMet = 0;
inline constexpr std::uint32_t kNJets = 1;
inline constexpr std::uint32_t kJets = 2;
inline constexpr std::uint32_t kHiggs = kJets + 6 * kParticle;
inline constexpr std::uint32_t kPhotons = kHiggs + 3 + 2 * kParticle;
static_assert(kPhotons + 3 + 3 * kParticle <= kStride,
              "the layout outgrew its stride");
}  // namespace slots

/// The first input of every draw of the chunk generated from `seed`.
[[nodiscard]] constexpr std::uint64_t chunk_key(std::uint64_t seed) noexcept {
  return util::mix64(seed ^ 0x6576656e7473ULL);
}

/// Raw draw `slot` of event `event`: output event * kStride + slot of the
/// splitmix64 stream keyed by `key`.
[[nodiscard]] constexpr std::uint64_t draw(std::uint64_t key,
                                           std::uint64_t event,
                                           std::uint32_t slot) noexcept {
  return util::mix64(key + (event * slots::kStride + slot) *
                               0x9e3779b97f4a7c15ULL);
}

/// A raw draw as a uniform double in [0, 1), the way sim::Rng maps its own.
[[nodiscard]] constexpr double unit(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// A raw draw as a uniform integer in [0, n), by the rejection-free
/// multiply-shift of sim::Rng::uniform_below.
[[nodiscard]] constexpr std::uint64_t below(std::uint64_t x,
                                            std::uint64_t n) noexcept {
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(x) * n) >>
                                    64);
}

/// The columns of a particle, in the order of its slots.
enum class Column : std::uint8_t { kPt, kEta, kPhi, kMass, kQuality };

inline constexpr double kPi = 3.141592653589793;

/// What one kind of particle looks like. pT is floor + Exp(pt_slope); eta
/// is uniform in ±eta_max, phi in [0, 2π), quality in [quality_lo, 1) and
/// mass in [mass_lo, mass_hi). A resonance's daughters replace the floor
/// with their share of its Normal(mean, sigma) mass, drawn once per event;
/// with share_is_mass they carry that share as their mass too. The second
/// daughter of a two-body resonance (closes_pair_of: the first daughter's
/// species) takes its eta and phi from the first daughter's so that the
/// pair's mass is the resonance mass.
struct Species {
  double pt_floor = 0.0;
  double pt_slope = 0.0;
  double eta_max = 0.0;
  double quality_lo = 0.0;
  double mass_lo = 0.0;
  double mass_hi = 0.0;
  double resonance_mean = 0.0;
  double resonance_sigma = 0.0;
  double daughters = 0.0;  // 0: not a resonance daughter
  bool share_is_mass = false;
  const Species* closes_pair_of = nullptr;
};

namespace species {
// MET: a particle with only a pT.
inline constexpr Species kMet{.pt_slope = 35.0};
inline constexpr Species kQcdJet{.pt_floor = 20.0, .pt_slope = 45.0,
                                 .eta_max = 2.5, .mass_lo = 5.0,
                                 .mass_hi = 30.0};
// ~3% of events: H->bb, two b-tagged jets whose pair mass is near 125 GeV.
inline constexpr Species kHiggsJet{.pt_slope = 20.0, .eta_max = 2.0,
                                   .quality_lo = 0.85,
                                   .resonance_mean = 125.0,
                                   .resonance_sigma = 8.0, .daughters = 2.0,
                                   .share_is_mass = true};
inline constexpr Species kHiggsPartner = [] {
  Species s = kHiggsJet;
  s.closes_pair_of = &kHiggsJet;
  return s;
}();
// ~0.5% of events: the RS-TriPhoton cascade X -> gamma Y, Y -> gamma gamma,
// three energetic isolated photons near 800 GeV.
inline constexpr Species kCascadePhoton{.pt_slope = 15.0, .eta_max = 1.4,
                                        .quality_lo = 0.9,
                                        .resonance_mean = 800.0,
                                        .resonance_sigma = 25.0,
                                        .daughters = 3.0};
inline constexpr Species kPromptPhoton{.pt_floor = 15.0, .pt_slope = 25.0,
                                       .eta_max = 2.5};
}  // namespace species

/// A daughter of resonance `s`'s share of its mass, drawn at `slot` and
/// `slot + 1` of `event`.
[[nodiscard]] inline double share(const Species& s, std::uint64_t key,
                                  std::uint64_t event, std::uint32_t slot) {
  return sim::Rng::normal_from(unit(draw(key, event, slot)),
                               unit(draw(key, event, slot + 1)),
                               s.resonance_mean, s.resonance_sigma) /
         s.daughters;
}

/// One generated particle as a sink receives it: the particle of `species`
/// whose slots start at `first_slot` of `event`, with pT floor `floor` (the
/// species' own, or a resonance daughter's share). Each column accessor
/// runs that column's transform on its own draw, so a column the sink never
/// asks for costs nothing. Values are truncated to float for
/// platform-stable content and equal the materialized columns.
struct Particle {
  const Species* species = nullptr;
  std::uint64_t key = 0;
  std::uint64_t event = 0;
  std::uint32_t first_slot = 0;
  double floor = 0.0;
  /// The columns asked for so far, one bit() per Column.
  mutable std::uint8_t asked = 0;

  [[nodiscard]] float pt() const noexcept {
    return static_cast<float>(
        floor + sim::Rng::exponential_from(u(Column::kPt), species->pt_slope));
  }
  [[nodiscard]] float eta() const noexcept {
    if (species->closes_pair_of != nullptr) [[unlikely]] {
      return close_pair(Column::kEta);
    }
    return uniform(Column::kEta, -species->eta_max, species->eta_max);
  }
  [[nodiscard]] float phi() const noexcept {
    if (species->closes_pair_of != nullptr) [[unlikely]] {
      return close_pair(Column::kPhi);
    }
    return uniform(Column::kPhi, 0.0, 2 * kPi);
  }
  [[nodiscard]] float mass() const noexcept {
    asked |= bit(Column::kMass);
    if (species->share_is_mass) return static_cast<float>(floor);
    // A fixed mass (photons) needs no draw.
    if (species->mass_lo == species->mass_hi) return species->mass_lo;
    return uniform(Column::kMass, species->mass_lo, species->mass_hi);
  }
  [[nodiscard]] float quality() const noexcept {
    return uniform(Column::kQuality, species->quality_lo, 1.0);
  }
  [[nodiscard]] static constexpr std::uint8_t bit(Column c) noexcept {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(c));
  }

 private:
  [[nodiscard]] double u(Column c) const noexcept {
    asked |= bit(c);
    return unit(draw(key, event, first_slot + static_cast<std::uint32_t>(c)));
  }
  [[nodiscard]] float uniform(Column c, double lo, double hi) const noexcept {
    return static_cast<float>(sim::Rng::uniform_from(u(c), lo, hi));
  }
  /// A second daughter's eta or phi, from its own draws and the first
  /// daughter's columns (events.cpp).
  [[nodiscard]] float close_pair(Column c) const noexcept;
};

/// Generate `events` collision events of the chunk `seed` and hand them to
/// `sink`. Kinematics are simplified but structured: jets follow falling
/// pT spectra; a fraction of events carry a Higgs-like dijet resonance at
/// ~125 GeV; a rarer fraction carry a tri-photon cascade resonance.
///
/// `Sink` provides `end_event()`, called after each event, and any of
/// `met(const Particle&)` (only its pt() is defined), `jet(const
/// Particle&)` and `photon(const Particle&)`; only the ones it defines are
/// called. Per event, met comes first, then jets, then photons.
template <typename Sink>
void generate_events(std::uint64_t seed, std::size_t events, Sink& sink) {
  using namespace slots;
  namespace sp = species;
  const std::uint64_t key = chunk_key(seed);
  for (std::uint64_t e = 0; e < events; ++e) {
    if constexpr (requires(const Particle& p) { sink.met(p); }) {
      sink.met(Particle{&sp::kMet, key, e, kMet});
    }
    if constexpr (requires(const Particle& p) { sink.jet(p); }) {
      const std::uint64_t njets = 2 + below(draw(key, e, kNJets), 5);
      for (std::uint32_t j = 0; j < njets; ++j) {
        sink.jet(Particle{&sp::kQcdJet, key, e, kJets + j * kParticle,
                          sp::kQcdJet.pt_floor});
      }
      if (unit(draw(key, e, kHiggs)) < 0.03) {
        const double half = share(sp::kHiggsJet, key, e, kHiggs + 1);
        sink.jet(Particle{&sp::kHiggsJet, key, e, kHiggs + 3, half});
        sink.jet(Particle{&sp::kHiggsPartner, key, e,
                          kHiggs + 3 + kParticle, half});
      }
    }
    if constexpr (requires(const Particle& p) { sink.photon(p); }) {
      // Usually zero to two prompt photons; sometimes the cascade.
      const bool cascade = unit(draw(key, e, kPhotons)) < 0.005;
      const Species& s = cascade ? sp::kCascadePhoton : sp::kPromptPhoton;
      const double floor =
          cascade ? share(s, key, e, kPhotons + 1) : s.pt_floor;
      const std::uint64_t nphotons =
          cascade ? 3 : below(draw(key, e, kPhotons + 1), 3);
      for (std::uint32_t g = 0; g < nphotons; ++g) {
        sink.photon(Particle{&s, key, e, kPhotons + 3 + g * kParticle, floor});
      }
    }
    sink.end_event();
  }
}

/// The materializing sink: every column of every particle it is handed,
/// appended to `chunk` in generation order.
class ChunkBuilder {
 public:
  ChunkBuilder(EventChunk& chunk, std::uint64_t seed) : chunk_(chunk) {
    chunk_.seed = seed;
    chunk_.jets.event_offsets.push_back(0);
    chunk_.photons.event_offsets.push_back(0);
  }

  void met(const Particle& m) { chunk_.met_pt.push_back(m.pt()); }
  void jet(const Particle& p) { append(chunk_.jets, p); }
  void photon(const Particle& p) { append(chunk_.photons, p); }
  void end_event() {
    chunk_.jets.event_offsets.push_back(
        static_cast<std::uint32_t>(chunk_.jets.count()));
    chunk_.photons.event_offsets.push_back(
        static_cast<std::uint32_t>(chunk_.photons.count()));
    ++chunk_.events;
  }

 private:
  static void append(ParticleColumns& cols, const Particle& p) {
    cols.pt.push_back(p.pt());
    cols.eta.push_back(p.eta());
    cols.phi.push_back(p.phi());
    cols.mass.push_back(p.mass());
    cols.quality.push_back(p.quality());
  }

  EventChunk& chunk_;
};

/// Materialize `events` events from `seed`: generate_events with a sink
/// that asks for every column.
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
