#include "hep/events.h"

namespace hepvine::hep {

namespace {

/// The materializing sink: every column, appended in generation order.
class ChunkBuilder {
 public:
  static constexpr CollectionReads kAllColumns{true, true, true, true, true};
  static constexpr EventReads kReads{true, kAllColumns, kAllColumns};

  explicit ChunkBuilder(EventChunk& chunk) : chunk_(chunk) {}

  void met(const LazyPt& pt) { chunk_.met_pt.push_back(pt.value()); }
  void jet(const Particle& p) { push(chunk_.jets, p); }
  void photon(const Particle& p) { push(chunk_.photons, p); }
  void end_event() {
    chunk_.jets.event_offsets.push_back(
        static_cast<std::uint32_t>(chunk_.jets.count()));
    chunk_.photons.event_offsets.push_back(
        static_cast<std::uint32_t>(chunk_.photons.count()));
  }

 private:
  static void push(ParticleColumns& cols, const Particle& p) {
    cols.pt.push_back(p.pt.value());
    cols.eta.push_back(p.eta);
    cols.phi.push_back(p.phi);
    cols.mass.push_back(p.mass);
    cols.quality.push_back(p.quality);
  }

  EventChunk& chunk_;
};

}  // namespace

EventChunk generate_chunk(std::uint64_t seed, std::size_t events) {
  EventChunk chunk;
  chunk.seed = seed;
  chunk.events = events;
  chunk.met_pt.reserve(events);
  chunk.jets.event_offsets.reserve(events + 1);
  chunk.photons.event_offsets.reserve(events + 1);
  chunk.jets.event_offsets.push_back(0);
  chunk.photons.event_offsets.push_back(0);

  ChunkBuilder sink(chunk);
  generate_events(seed, events, sink);
  return chunk;
}

}  // namespace hepvine::hep
