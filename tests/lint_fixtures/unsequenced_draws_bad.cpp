// Fixture: VL012 must flag two or more draws from one generator inside a
// single argument list, whose evaluation order C++ leaves unspecified.
#include "sim/rng.h"

struct Point {
  double x = 0;
  double y = 0;
};

double sample(hepvine::sim::Rng& rng) { return rng.exponential(2.0); }
void record(double a, double b) { (void)a; (void)b; }

void two_member_draws(hepvine::sim::Rng& rng) {
  record(rng.uniform(), rng.uniform(0.0, 1.0));  // flagged
}

void helper_and_member_draw(hepvine::sim::Rng& gen) {
  record(sample(gen), gen.normal(0.0, 1.0));  // flagged: declared as Rng
}

struct Sampler {
  hepvine::sim::Rng* rng_ = nullptr;
  Point point() { return make(rng_->uniform(), rng_->uniform()); }  // flagged
  static Point make(double x, double y) { return Point{x, y}; }
};
