// hist_reference: print the histograms the built-in analyses fill over a
// fixed set of chunks, one line per histogram, in the format of
// tests/data/physics_reference.txt.
//
// Usage:
//   hist_reference <chunks> <events-per-chunk>
//
// Chunk seeds are 1..chunks. Each analysis's histograms are summed over
// every chunk. A line is
//   <analysis> <histogram> <bins> <lo> <hi> <underflow> <overflow> <bin>...
// with every count printed exactly. The output compares two event
// generators statistically: run it at each, then compare the lines with
// hep::chi2_per_dof (PhysicsReference in tests/test_processors.cpp does so
// against the committed fixture).

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "hep/processors.h"

namespace {

using namespace hepvine;

void print(const char* analysis, const hep::HistogramSet& set) {
  for (const auto& [name, h] : set.histograms()) {
    std::printf("%s %s %u %.17g %.17g %.17g %.17g", analysis, name.c_str(),
                h.bins(), h.lo(), h.hi(), h.underflow(), h.overflow());
    for (std::uint32_t b = 0; b < h.bins(); ++b) {
      std::printf(" %.17g", h.bin_content(b));
    }
    std::printf("\n");
  }
}

/// A decimal count with nothing after it.
bool parse_count(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t chunks = 0;
  std::uint64_t events = 0;
  if (argc != 3 || !parse_count(argv[1], chunks) ||
      !parse_count(argv[2], events)) {
    std::fprintf(stderr, "usage: %s <chunks> <events-per-chunk>\n", argv[0]);
    return 2;
  }
  for (const hep::Analysis analysis :
       {hep::Analysis::kDv3, hep::Analysis::kTriPhoton}) {
    hep::HistogramSet sum;
    for (std::uint64_t seed = 1; seed <= chunks; ++seed) {
      sum.merge(hep::run_analysis(analysis, seed, events));
    }
    print(analysis == hep::Analysis::kDv3 ? "dv3" : "triphoton", sum);
  }
  return 0;
}
