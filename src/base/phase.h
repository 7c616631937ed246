// Process-wide pipeline-phase accounting (the BENCH `phase_*_seconds`
// substrate). Library layers that do attributable work — the scenario
// setup (zone build + signing), the framed/columnar codecs, raw file I/O,
// and the capture shard merge — book their wall time into one of four
// monotonically increasing counters. The bench harness snapshots the
// counters around a pipeline stage and turns the deltas into phase
// fields, so `wall ≈ Σ phase_*_seconds` can be asserted instead of hoped
// for.
//
// The counters are pure telemetry, never read by simulation or analysis
// code, and excluded from every rendered artifact — the wall-clock
// determinism contract is untouched.
//
// Attribution rule: only the ORCHESTRATING thread's time is booked.
// Parallel helpers (frame CRC workers, zone-signing workers) run inside a
// timed region of their caller, so a phase delta is wall time of that
// stage, not CPU time summed over workers. A thread-local guard makes
// nested timers no-ops: whichever timer is outermost owns the interval.
// A merge therefore only shows in kMerge when it runs outside the other
// phases' timed regions (the dataset cache flattens before it encodes).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace clouddns::base {

enum class Phase : unsigned {
  kSetup = 0,   ///< Scenario construction: sites, zones, signing, fleets.
  kEncode = 1,  ///< Codec work: columnar/sidecar encode+decode, frame
                ///< wrap/unwrap incl. CRC32C.
  kIo = 2,      ///< Raw file bytes: reads, atomic writes, fsync, rename.
  kMerge = 3,   ///< Capture shard merges (MergeShards/MergeShardsHeap).
};
inline constexpr unsigned kPhaseCount = 4;

namespace detail {
inline std::atomic<std::uint64_t> g_phase_nanos[kPhaseCount];
inline thread_local bool g_phase_timer_active = false;
}  // namespace detail

/// Nanoseconds booked into `phase` since process start. Monotonic;
/// callers diff two snapshots around the stage they are attributing.
[[nodiscard]] inline std::uint64_t PhaseNanos(Phase phase) {
  return detail::g_phase_nanos[static_cast<unsigned>(phase)].load(
      std::memory_order_relaxed);
}

/// RAII accumulator: books the scope's wall time into `phase`. Nested
/// timers (any phase) on the same thread are inert, so instrumenting both
/// a helper and its caller never double-counts.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(Phase phase)
      : phase_(phase), owner_(!detail::g_phase_timer_active) {
    if (!owner_) return;
    detail::g_phase_timer_active = true;
    // lint:allow(wall-clock): bench-phase telemetry only; the reading never reaches simulation state or rendered output
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedPhaseTimer() {
    if (!owner_) return;
    detail::g_phase_timer_active = false;
    // lint:allow(wall-clock): bench-phase telemetry only; see constructor
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
  bool owner_;
  // lint:allow(wall-clock): telemetry start timestamp for the counter above
  std::chrono::steady_clock::time_point start_;
};

}  // namespace clouddns::base
