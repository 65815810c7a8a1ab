// Wall-clock timing helpers.
#pragma once

#include <chrono>
#include <cstdint>

namespace fpmix {

/// Steady-clock reading in nanoseconds: deadlines and intervals, never
/// wall-clock dates.
inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// steady_ns() in whole milliseconds.
inline std::uint64_t steady_ms() { return steady_ns() / 1000000ull; }

/// Monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fpmix
