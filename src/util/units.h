// Units and conversions shared across the simulator.
//
// Time is kept as integer microseconds (`Tick`) for exact, platform-
// independent event ordering. Data sizes are bytes in unsigned 64-bit.
// Bandwidth is bytes-per-second as double (rates are the one quantity we
// allow to be fractional; durations derived from them are rounded up so a
// transfer never finishes early).
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>

namespace hepvine::util {

/// Simulated time in integer microseconds.
using Tick = std::int64_t;

inline constexpr Tick kUsec = 1;
inline constexpr Tick kMsec = 1000 * kUsec;
inline constexpr Tick kSec = 1000 * kMsec;
inline constexpr Tick kMinute = 60 * kSec;
inline constexpr Tick kHour = 60 * kMinute;

/// Convert seconds (double) to ticks, rounding to nearest microsecond.
[[nodiscard]] constexpr Tick seconds(double s) noexcept {
  return static_cast<Tick>(s * static_cast<double>(kSec) + 0.5);
}

/// Convert ticks to floating-point seconds (for reporting only).
[[nodiscard]] constexpr double to_seconds(Tick t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSec);
}

inline constexpr std::uint64_t kKB = 1000ULL;
inline constexpr std::uint64_t kMB = 1000ULL * kKB;
inline constexpr std::uint64_t kGB = 1000ULL * kMB;
inline constexpr std::uint64_t kTB = 1000ULL * kGB;

inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * kKiB;
inline constexpr std::uint64_t kGiB = 1024ULL * kMiB;

/// Bandwidth in bytes per second.
using Bandwidth = double;

/// Gigabits/second to bytes/second.
[[nodiscard]] constexpr Bandwidth gbps(double g) noexcept {
  return g * 1e9 / 8.0;
}

/// Megabytes/second to bytes/second.
[[nodiscard]] constexpr Bandwidth mbs(double m) noexcept { return m * 1e6; }

/// static_cast<Tick>(std::ceil(x)), without the libm call baseline x86-64
/// makes for std::ceil. Exact on [0, 2^63): truncation is exact there, and
/// so is the step up, since every double from 2^52 up is an integer.
/// Anything else takes std::ceil.
[[nodiscard]] inline Tick ceil_to_tick(double x) noexcept {
  if (!(x >= 0.0 && x < 0x1p63)) return static_cast<Tick>(std::ceil(x));
  const auto t = static_cast<Tick>(x);
  return static_cast<double>(t) < x ? t + 1 : t;
}

/// static_cast<std::uint64_t>(std::ceil(x)) for a byte count x in
/// [0, 2^64), inline and exact for the reason ceil_to_tick is.
[[nodiscard]] inline std::uint64_t ceil_bytes(double x) noexcept {
  assert(x >= 0.0 && x < 0x1p64);
  const auto b = static_cast<std::uint64_t>(x);
  return static_cast<double>(b) < x ? b + 1 : b;
}

/// Time to move `bytes` at `rate`, rounded up to a whole tick (min 1 tick
/// for any nonzero payload so causality is preserved).
[[nodiscard]] inline Tick transfer_time(std::uint64_t bytes,
                                        Bandwidth rate) noexcept {
  if (bytes == 0) return 0;
  const double secs = static_cast<double>(bytes) / rate;
  const Tick ticks = ceil_to_tick(secs * static_cast<double>(kSec));
  return ticks > 0 ? ticks : 1;
}

/// Cumulative-exact charging for repeated small transfers. Each
/// `transfer_time` call rounds up to a whole tick, so N back-to-back
/// sub-tick payloads (16 KiB argument tuples at 200 MB/s) overcharge by
/// up to N-1 ticks versus one N-times-larger transfer. The accumulator
/// applies the settle_flow residue pattern to cost charging: it tracks
/// lifetime bytes and lifetime ticks charged, and each call returns the
/// difference between the exact cumulative cost and what was already
/// charged — so any split of a byte stream sums to the same total.
struct TickAccumulator {
  std::uint64_t bytes = 0;  // lifetime bytes charged through this clock
  Tick charged = 0;         // lifetime ticks returned so far

  /// Charge `b` more bytes at `rate`; returns the incremental ticks.
  [[nodiscard]] Tick charge(std::uint64_t b, Bandwidth rate) noexcept {
    if (b == 0) return 0;
    bytes += b;
    const Tick total = transfer_time(bytes, rate);
    const Tick delta = total > charged ? total - charged : 0;
    charged += delta;
    return delta;
  }
};

/// Human-readable byte count, e.g. "1.2 GB".
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

/// Human-readable duration, e.g. "12m34.5s".
[[nodiscard]] std::string format_duration(Tick t);

}  // namespace hepvine::util
