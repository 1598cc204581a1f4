// A max-min fairness certificate, independent of how rates were computed.
//
// A feasible allocation is max-min fair iff every flow crosses a saturated
// link on which no flow has a higher rate (Bertsekas & Gallager, Data
// Networks, §6.5). Both recompute arms of net::Network share their float
// operations by design, so their differential cannot catch an error they
// share; this check can. Today's water-filling leaves a link's flows a few
// ulps apart when its share drifts across passes, so "saturated" and
// "higher" both carry the network's 2^-20 relative margin.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hepvine::net {

/// A link is saturated when its flows' rates sum to at least this fraction
/// of its capacity. A link that enters the freeze set ends a fill summing
/// to its capacity within n * 2^-52 relative rounding, so the margin
/// covers any link with fewer than 2^30 flows.
inline constexpr double kSaturatedFraction = 1.0 - 0x1p-20;

/// Check an allocation: `paths[f]` lists the links (indices into
/// `capacities`) flow f crosses, a link listed twice carrying the flow
/// twice, and `rates[f]` is its rate. Returns "" when every link's load is
/// within its capacity (to the margin) and every flow has a bottleneck: a
/// saturated link on which no flow's rate exceeds its own (to the margin).
/// Otherwise returns the first violation found, in words. A link of NaN
/// capacity is never saturated, nor over capacity.
[[nodiscard]] std::string check_max_min(
    std::span<const double> capacities,
    std::span<const std::vector<std::int32_t>> paths,
    std::span<const double> rates);

}  // namespace hepvine::net
