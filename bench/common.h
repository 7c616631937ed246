// Shared helpers for the bench binaries: the allocation and peak-RSS
// probes bench_e2e reads, and the standard capture-week configuration
// (analysis::StandardConfig, defined next to the paper reports that
// bench_paper prints). Benches pull their datasets through LoadOrRun, so a
// capture week is simulated once and shared across binaries via the cache
// directory (CLOUDDNS_CACHE_DIR, default ./clouddns_cache). The per-dataset
// client-query budget can be raised with CLOUDDNS_QUERIES for smoother
// statistics.
#pragma once

#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "analysis/calibration.h"
#include "analysis/dataset_cache.h"
#include "base/io.h"
#include "base/phase.h"
#include "analysis/experiments.h"
#include "analysis/paper_reports.h"
#include "analysis/report.h"
#include "cloud/scenario.h"

namespace clouddns::bench {

/// Heap-allocation counters fed by the replacement operator new below.
/// Every bench binary is a single translation unit including this header,
/// so the replacement is defined exactly once per binary.
///
/// The counter is sharded across cache-line-padded slots: scan workers now
/// allocate concurrently on the shared pool, and a single shared atomic
/// would bounce its cache line between workers on every allocation —
/// slowing the multi-threaded runs whose allocations it counts. Each
/// thread picks a slot round-robin on first use; AllocCount() sums them.
struct AllocSlot {
  alignas(64) std::atomic<std::uint64_t> count{0};
};
inline AllocSlot g_alloc_slots[16];
inline std::atomic<std::size_t> g_alloc_slot_next{0};

inline std::atomic<std::uint64_t>& AllocSlotOfThread() {
  thread_local std::atomic<std::uint64_t>* slot =
      &g_alloc_slots[g_alloc_slot_next.fetch_add(1, std::memory_order_relaxed) %
                     (sizeof(g_alloc_slots) / sizeof(g_alloc_slots[0]))]
           .count;
  return *slot;
}

/// Total allocations across all threads since process start.
inline std::uint64_t AllocCount() {
  std::uint64_t total = 0;
  for (const AllocSlot& slot : g_alloc_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace clouddns::bench

// Sanitizer runtimes install their own allocator interposers; skip the
// counting hook there (AllocCount() then reads 0).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CLOUDDNS_BENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CLOUDDNS_BENCH_COUNT_ALLOCS 0
#else
#define CLOUDDNS_BENCH_COUNT_ALLOCS 1
#endif
#else
#define CLOUDDNS_BENCH_COUNT_ALLOCS 1
#endif

#if CLOUDDNS_BENCH_COUNT_ALLOCS
// Replacement global allocation functions (not inline — [replacement
// .functions] forbids it). Counting is a relaxed atomic increment, cheap
// enough to leave on for every bench run. GCC's mismatched-new-delete
// check pairs the library operator new declaration with our inlined
// free() and warns, although new/delete here are a consistent
// malloc/free pair — silence it for these definitions only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  clouddns::bench::AllocSlotOfThread().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif

namespace clouddns::bench {

/// Resets the kernel's resident-set high-water mark to the current RSS
/// (write "5" to /proc/self/clear_refs), so a following PeakRssMb reflects
/// the measured run, not whatever the process peaked at earlier.
inline void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak RSS in MiB since the last ResetPeakRss: VmHWM from
/// /proc/self/status, with getrusage (whole-process high-water, never
/// reset) as the portable fallback.
inline double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Lives with the paper reports. Only bench_e2e still names it bench::;
// the using goes once it calls analysis::StandardConfig.
using analysis::StandardConfig;

inline std::string ProviderName(cloud::Provider provider) {
  return std::string(cloud::ToString(provider));
}

}  // namespace clouddns::bench
