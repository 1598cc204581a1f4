// Fixture: VL012 stays quiet on sequenced draws, single draws per argument
// list, independent generators, braced init-lists and lambda bodies.
#include "sim/rng.h"

struct Point {
  double x = 0;
  double y = 0;
};

void record(double a, double b) { (void)a; (void)b; }
double scale(double v) { return 2.0 * v; }

void named_locals(hepvine::sim::Rng& rng) {
  const double a = rng.uniform();
  const double b = rng.uniform();
  record(a, b);
}

void one_draw_each_list(hepvine::sim::Rng& rng) {
  record(scale(rng.uniform()), 1.0);
}

void independent_generators(hepvine::sim::Rng& rng_a,
                            hepvine::sim::Rng& rng_b) {
  record(rng_a.uniform(), rng_b.uniform());
}

Point braced(hepvine::sim::Rng& rng) {
  return Point{rng.uniform(), rng.uniform()};  // init-lists are sequenced
}

template <typename F>
void later(F f) { f(); }

void lambda_body(hepvine::sim::Rng& rng) {
  later([&rng] { record(rng.uniform(), 0.0); (void)rng.uniform(); });
}

void non_draw_members(hepvine::sim::Rng& rng) {
  record(static_cast<double>(rng.state()[0]), static_cast<double>(rng.state()[1]));
}
