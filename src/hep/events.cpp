#include "hep/events.h"

#include <algorithm>
#include <cmath>

namespace hepvine::hep {

float Particle::close_pair(Column c) const noexcept {
  // The first daughter's slots come just before this particle's. With
  // r = m² / (2 pT1 pT2), the massless pair mass squared
  // 2 pT1 pT2 (cosh Δη − cos Δφ) is m² where cos Δφ = cosh Δη − r. Both
  // pTs are at least m/2, so r ≤ 2 and |cos Δφ| ≤ 1 for |Δη| ≤ acosh(1 + r).
  const Particle first{species->closes_pair_of, key, event,
                       first_slot - slots::kParticle, floor};
  const double m = floor * species->daughters;
  const double r = m * m / (2.0 * first.pt() * pt());
  // Eta: uniform over the acceptance within that Δη of the first's eta.
  const double eta1 = first.eta();
  const double deta_max = std::acosh(1.0 + r);
  const float eta =
      uniform(Column::kEta, std::max(-species->eta_max, eta1 - deta_max),
              std::min(species->eta_max, eta1 + deta_max));
  if (c == Column::kEta) return eta;
  // Phi: the first's ± the opening angle, on the side the own phi draw
  // picks.
  const double dphi = std::acos(
      std::clamp(std::cosh(static_cast<double>(eta) - eta1) - r, -1.0, 1.0));
  const double side = uniform(Column::kPhi, 0.0, 2 * kPi) < kPi ? 1.0 : -1.0;
  return static_cast<float>(
      std::fmod(first.phi() + side * dphi + 2 * kPi, 2 * kPi));
}

EventChunk generate_chunk(std::uint64_t seed, std::size_t events) {
  EventChunk chunk;
  chunk.met_pt.reserve(events);
  chunk.jets.event_offsets.reserve(events + 1);
  chunk.photons.event_offsets.reserve(events + 1);
  ChunkBuilder sink(chunk, seed);
  generate_events(seed, events, sink);
  return chunk;
}

}  // namespace hepvine::hep
