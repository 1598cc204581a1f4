// Small string builders.
#pragma once

#include <string>
#include <string_view>

namespace hepvine::util {

/// `head`, the decimal digits of `n`, then `tail`, built by append. The
/// operator+ spelling, "w" + std::to_string(i) + ".up", inlines into a
/// front insert that GCC 12 at -O3 flags with a false -Wrestrict, which
/// breaks -Werror builds.
template <typename Int>
[[nodiscard]] std::string numbered(std::string_view head, Int n,
                                   std::string_view tail = {}) {
  std::string out(head);
  out += std::to_string(n);
  out += tail;
  return out;
}

}  // namespace hepvine::util
