// Process-wide scenario-setup timer. `ScenarioRuntime::Run` books the wall
// time of scenario construction (sites, zone build and DNSSEC signing,
// resolver fleets) into one monotonically increasing counter, which
// bench_e2e snapshots around a run to report `setup_s`.
//
// The counter is pure telemetry, never read by simulation or analysis
// code, and excluded from every rendered artifact — the wall-clock
// determinism contract is untouched.
//
// Only the orchestrating thread's time is booked: the parallel zone-build
// and signing workers run inside the timed region, so the counter holds
// wall time of the setup stage, not CPU time summed over workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace clouddns::base {

enum class Phase : unsigned {
  kSetup = 0,  ///< Scenario construction: sites, zones, signing, fleets.
};
inline constexpr unsigned kPhaseCount = 1;

namespace detail {
inline std::atomic<std::uint64_t> g_phase_nanos[kPhaseCount];
}  // namespace detail

/// Nanoseconds booked into `phase` since process start. Monotonic;
/// callers diff two snapshots around the stage they are attributing.
[[nodiscard]] inline std::uint64_t PhaseNanos(Phase phase) {
  return detail::g_phase_nanos[static_cast<unsigned>(phase)].load(
      std::memory_order_relaxed);
}

/// RAII accumulator: books the scope's wall time into `phase`.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(Phase phase) : phase_(phase) {
    // lint:allow(wall-clock): setup-time telemetry only; the reading never reaches simulation state or rendered output
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedPhaseTimer() {
    // lint:allow(wall-clock): setup-time telemetry only; see constructor
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    detail::g_phase_nanos[static_cast<unsigned>(phase_)].fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        std::memory_order_relaxed);
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  Phase phase_;
  // lint:allow(wall-clock): telemetry start timestamp for the counter above
  std::chrono::steady_clock::time_point start_;
};

}  // namespace clouddns::base
