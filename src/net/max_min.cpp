#include "net/max_min.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace hepvine::net {

std::string check_max_min(std::span<const double> capacities,
                          std::span<const std::vector<std::int32_t>> paths,
                          std::span<const double> rates) {
  assert(paths.size() == rates.size());
  std::vector<double> load(capacities.size(), 0.0);
  std::vector<double> top(capacities.size(), 0.0);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    for (const std::int32_t l : paths[f]) {
      const auto i = static_cast<std::size_t>(l);
      load[i] += rates[f];
      top[i] = std::max(top[i], rates[f]);
    }
  }
  for (std::size_t l = 0; l < capacities.size(); ++l) {
    if (load[l] * kSaturatedFraction > capacities[l]) {
      return "link " + std::to_string(l) + " carries " +
             std::to_string(load[l]) + " over its capacity " +
             std::to_string(capacities[l]);
    }
  }
  for (std::size_t f = 0; f < paths.size(); ++f) {
    const bool bottlenecked =
        std::any_of(paths[f].begin(), paths[f].end(), [&](std::int32_t l) {
          const auto i = static_cast<std::size_t>(l);
          return load[i] >= capacities[i] * kSaturatedFraction &&
                 top[i] * kSaturatedFraction <= rates[f];
        });
    if (!bottlenecked) {
      return "flow " + std::to_string(f) + " at rate " +
             std::to_string(rates[f]) +
             " crosses no saturated link where it has the top rate";
    }
  }
  return "";
}

}  // namespace hepvine::net
