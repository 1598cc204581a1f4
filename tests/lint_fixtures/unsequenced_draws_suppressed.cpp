// Fixture: line suppression silences VL012 where the order cannot matter.
#include "sim/rng.h"

void record(double a, double b) { (void)a; (void)b; }

void order_free(hepvine::sim::Rng& rng) {
  // vine-lint: suppress(unsequenced-draws)
  record(rng.uniform(), rng.uniform());
}
