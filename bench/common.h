// Shared scenario configurations for the bench harness. Every bench that
// reproduces a table/figure pulls its datasets through LoadOrRun, so a
// capture week is simulated once and shared across binaries via the cache
// directory (CLOUDDNS_CACHE_DIR, default ./clouddns_cache). The per-dataset
// client-query budget can be raised with CLOUDDNS_QUERIES for smoother
// statistics.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/calibration.h"
#include "analysis/dataset_cache.h"
#include "base/io.h"
#include "base/mutex.h"
#include "base/phase.h"
#include "base/thread_annotations.h"
#include "analysis/experiments.h"
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
/// distorting the very scaling numbers the bench exists to record. Each
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
// counting hook there (the stat reads 0 and is omitted from the JSON).
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
/// (write "5" to /proc/self/clear_refs). Called by BenchRecorder at
/// construction so peak_rss_mb reflects THIS bench's run, not whatever
/// the process (or a shared fixture) peaked at earlier.
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

/// Records a bench run into BENCH_<name>.json (wall time, processed query
/// volume, thread count, peak RSS) so speedups across commits can be
/// compared machine-readably. Construct at the top of main(); the file is
/// written when the recorder goes out of scope.
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    ResetPeakRss();
    alloc_start_ = AllocCount();
  }
  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;

  /// Call once per dataset with the number of capture records analyzed.
  /// Thread-safe: benches may accumulate from per-dataset callbacks.
  void AddQueries(std::uint64_t n) EXCLUDES(mu_) {
    base::MutexLock lock(mu_);
    queries_ += n;
  }

  /// Appends a bench-specific numeric field to the emitted JSON, so a
  /// bench can expose its headline result (an amplification factor, a
  /// ratio, a count) machine-readably next to the timing data.
  void AddStat(const std::string& key, double value) EXCLUDES(mu_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    base::MutexLock lock(mu_);
    stats_.emplace_back(key, buf);
  }
  void AddStat(const std::string& key, std::uint64_t value) EXCLUDES(mu_) {
    base::MutexLock lock(mu_);
    stats_.emplace_back(key, std::to_string(value));
  }

  /// Accumulates wall time into a named pipeline phase (simulate / merge /
  /// scan), emitted as `"phase_<name>_seconds"` so BENCH json proves where
  /// the time went, not just how much there was. Repeated calls with the
  /// same name add up.
  void AddPhaseSeconds(const std::string& name, double seconds)
      EXCLUDES(mu_) {
    base::MutexLock lock(mu_);
    for (auto& [key, total] : phases_) {
      if (key == name) {
        total += seconds;
        return;
      }
    }
    phases_.emplace_back(name, seconds);
  }

  ~BenchRecorder() EXCLUDES(mu_) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    base::MutexLock lock(mu_);
    // Wall-time breakdown line (lands in bench_output.txt), plus the
    // asserted phase-coverage invariant: once a bench books phases, they
    // must explain the wall — an unaccounted slice above 10% (and a
    // 0.25s absolute floor, so millisecond benches aren't judged on
    // startup noise) means a new cost crept in outside the accounting,
    // which is exactly the blind spot the phases exist to prevent.
    if (!phases_.empty()) {
      double accounted = 0;
      for (const auto& [key, seconds] : phases_) accounted += seconds;
      const double unaccounted = wall - accounted;
      std::printf("[bench] %s wall %.3fs =", name_.c_str(), wall);
      for (std::size_t i = 0; i < phases_.size(); ++i) {
        std::printf("%s %s %.3fs", i == 0 ? "" : " +",
                    phases_[i].first.c_str(), phases_[i].second);
      }
      std::printf(" | unaccounted %.3fs (%.1f%%)\n", unaccounted,
                  wall > 0 ? 100.0 * unaccounted / wall : 0.0);
      if (unaccounted > 0.1 * wall && unaccounted > 0.25) {
        std::fprintf(stderr,
                     "FATAL: %s phase accounting covers only %.3fs of %.3fs "
                     "wall — the phase breakdown no longer explains where "
                     "the time goes\n",
                     name_.c_str(), accounted, wall);
        std::abort();
      }
    }
    std::size_t threads = std::thread::hardware_concurrency();
    if (const char* env = std::getenv("CLOUDDNS_THREADS")) {
      char* end = nullptr;
      unsigned long long value = std::strtoull(env, &end, 10);
      if (end != env && value > 0) threads = static_cast<std::size_t>(value);
    }
    const std::uint64_t allocs = AllocCount() - alloc_start_;
    const std::string path = "BENCH_" + name_ + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f,
                   "{\n"
                   "  \"name\": \"%s\",\n"
                   "  \"wall_seconds\": %.3f,\n"
                   "  \"queries\": %llu,\n"
                   "  \"queries_per_second\": %.0f,\n"
                   "  \"threads\": %zu,\n"
                   "  \"peak_rss_mb\": %.1f",
                   name_.c_str(), wall,
                   static_cast<unsigned long long>(queries_),
                   wall > 0 ? static_cast<double>(queries_) / wall : 0.0,
                   threads, PeakRssMb());
#if CLOUDDNS_BENCH_COUNT_ALLOCS
      std::fprintf(f,
                   ",\n  \"allocations\": %llu,\n"
                   "  \"allocs_per_query\": %.2f",
                   static_cast<unsigned long long>(allocs),
                   queries_ > 0
                       ? static_cast<double>(allocs) /
                             static_cast<double>(queries_)
                       : 0.0);
#else
      (void)allocs;
#endif
      for (const auto& [key, seconds] : phases_) {
        std::fprintf(f, ",\n  \"phase_%s_seconds\": %.3f", key.c_str(),
                     seconds);
      }
      for (const auto& [key, value] : stats_) {
        std::fprintf(f, ",\n  \"%s\": %s", key.c_str(), value.c_str());
      }
      std::fprintf(f, "\n}\n");
      std::fclose(f);
    }
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t alloc_start_ = 0;
  mutable base::Mutex mu_;
  std::uint64_t queries_ GUARDED_BY(mu_) = 0;
  std::vector<std::pair<std::string, std::string>> stats_ GUARDED_BY(mu_);
  std::vector<std::pair<std::string, double>> phases_ GUARDED_BY(mu_);
};

/// Runs `fn` and books its wall time into the named phase of `recorder`.
/// Returns fn's result.
template <typename Fn>
auto WithPhase(BenchRecorder& recorder, const char* phase, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    recorder.AddPhaseSeconds(
        phase, std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count());
  } else {
    auto result = fn();
    recorder.AddPhaseSeconds(
        phase, std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count());
    return result;
  }
}

/// Runs a dataset-producing callable (typically analysis::LoadOrRun) and
/// books its wall time split by where it actually went: the library-side
/// phase counters attribute scenario construction (`setup`), codec work
/// (`encode`: columnar/frame/CRC), and raw file bytes (`io`); whatever
/// the counters don't claim — the simulation schedule loop on a cold
/// run, approximately nothing on a warm cache hit — is booked as
/// `simulate`.
template <typename Fn>
auto WithSimulatePhase(BenchRecorder& recorder, Fn&& fn) {
  const std::uint64_t setup0 = base::PhaseNanos(base::Phase::kSetup);
  const std::uint64_t encode0 = base::PhaseNanos(base::Phase::kEncode);
  const std::uint64_t io0 = base::PhaseNanos(base::Phase::kIo);
  const auto start = std::chrono::steady_clock::now();
  auto book = [&] {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const double setup =
        static_cast<double>(base::PhaseNanos(base::Phase::kSetup) - setup0) *
        1e-9;
    const double encode =
        static_cast<double>(base::PhaseNanos(base::Phase::kEncode) -
                            encode0) *
        1e-9;
    const double io =
        static_cast<double>(base::PhaseNanos(base::Phase::kIo) - io0) * 1e-9;
    recorder.AddPhaseSeconds("setup", setup);
    recorder.AddPhaseSeconds("encode", encode);
    recorder.AddPhaseSeconds("io", io);
    const double accounted = setup + encode + io;
    recorder.AddPhaseSeconds("simulate",
                             wall > accounted ? wall - accounted : 0.0);
  };
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    book();
  } else {
    auto result = fn();
    book();
    return result;
  }
}

/// Runs an analysis callable and books its wall time split into the
/// `scan` and `merge` phases — merge is the base::Phase::kMerge delta
/// (time flattening sharded captures), scan is everything else. With
/// shard-wise analytics the merge share should be zero unless a consumer
/// genuinely flattens.
template <typename Fn>
auto WithScanPhase(BenchRecorder& recorder, Fn&& fn) {
  const std::uint64_t merge_start = base::PhaseNanos(base::Phase::kMerge);
  const auto start = std::chrono::steady_clock::now();
  auto book = [&] {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const double merge =
        static_cast<double>(base::PhaseNanos(base::Phase::kMerge) -
                            merge_start) *
        1e-9;
    recorder.AddPhaseSeconds("scan", wall > merge ? wall - merge : 0.0);
    recorder.AddPhaseSeconds("merge", merge);
  };
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    book();
  } else {
    auto result = fn();
    book();
    return result;
  }
}

/// One measured point of the thread-scaling sweep. Phase split: `merge` is
/// time inside the capture K-way/ladder merge (base::Phase::kMerge delta —
/// zero when analytics scan shard-wise), `scan` is the rest of the analyze
/// wall time.
struct ScalingPoint {
  std::size_t threads = 0;
  double wall_seconds = 0;
  double scan_seconds = 0;
  double merge_seconds = 0;
  std::uint64_t queries = 0;
};

/// The sweep is opt-in: it re-analyzes every dataset 24x (4 thread counts
/// x best-of-6 repeats), which is noise for the default single-shot bench
/// run.
inline bool ScalingSweepRequested() {
  return std::getenv("CLOUDDNS_SCALING") != nullptr;
}

/// Rewrites this bench's entries in the shared BENCH_scaling.json (a JSON
/// array with one object per line), keeping other benches' entries so the
/// sweep binaries merge into one artifact.
inline void WriteScalingResults(const std::string& bench_name,
                                const std::vector<ScalingPoint>& points) {
  std::vector<std::string> lines;
  const std::string self_key = "\"name\": \"" + bench_name + "\"";
  if (std::FILE* f = std::fopen("BENCH_scaling.json", "r")) {
    char buf[512];
    while (std::fgets(buf, sizeof(buf), f) != nullptr) {
      std::string line(buf);
      if (line.find("\"name\": ") == std::string::npos) continue;
      if (line.find(self_key) != std::string::npos) continue;
      while (!line.empty() &&
             (line.back() == '\n' || line.back() == '\r' ||
              line.back() == ',' || line.back() == ' ')) {
        line.pop_back();
      }
      lines.push_back(std::move(line));
    }
    std::fclose(f);
  }
  for (const ScalingPoint& p : points) {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"threads\": %zu, "
                  "\"wall_seconds\": %.3f, \"scan_seconds\": %.3f, "
                  "\"merge_seconds\": %.3f, \"queries\": %llu, "
                  "\"queries_per_second\": %.0f}",
                  bench_name.c_str(), p.threads, p.wall_seconds,
                  p.scan_seconds, p.merge_seconds,
                  static_cast<unsigned long long>(p.queries),
                  p.wall_seconds > 0
                      ? static_cast<double>(p.queries) / p.wall_seconds
                      : 0.0);
    lines.emplace_back(buf);
  }
  if (std::FILE* f = std::fopen("BENCH_scaling.json", "w")) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::fprintf(f, "%s%s\n", lines[i].c_str(),
                   i + 1 < lines.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }
}

/// Runs `analyze` (which must render its full analysis result to a string)
/// over every dataset at 1/2/4/8 worker threads, asserting the rendered
/// output is byte-identical across thread counts — the AnalysisPlan's
/// worker-ordered fold makes results thread-count-invariant, and this is
/// the executable form of that contract. Each point is measured six
/// times and the fastest repeat kept (scheduler noise otherwise swamps
/// the single-digit-millisecond analyze times). Timing per thread count,
/// split into scan and merge phases, goes to BENCH_scaling.json.
template <typename AnalyzeFn>
void RunScalingSweep(const std::string& bench_name,
                     const std::vector<cloud::ScenarioResult>& datasets,
                     AnalyzeFn analyze) {
  const char* prev = std::getenv("CLOUDDNS_THREADS");
  const std::string saved = prev != nullptr ? prev : "";
  std::vector<ScalingPoint> points;
  std::string baseline;
  std::printf("\nThread-scaling sweep (CLOUDDNS_SCALING):\n");
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    setenv("CLOUDDNS_THREADS", std::to_string(threads).c_str(), 1);
    ScalingPoint point;
    point.threads = threads;
    bool measured = false;
    for (int repeat = 0; repeat < 6; ++repeat) {
      std::string rendered;
      std::uint64_t queries = 0;
      const std::uint64_t merge_start =
          base::PhaseNanos(base::Phase::kMerge);
      const auto start = std::chrono::steady_clock::now();
      for (const auto& dataset : datasets) {
        rendered += analyze(dataset);
        queries += dataset.records.size();
      }
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double merge =
          static_cast<double>(base::PhaseNanos(base::Phase::kMerge) -
                              merge_start) *
          1e-9;
      if (baseline.empty()) {
        baseline = rendered;
      } else if (rendered != baseline) {
        std::fprintf(stderr,
                     "FATAL: %s analysis output at %zu threads differs from "
                     "the 1-thread rendering — thread-count invariance is "
                     "broken\n",
                     bench_name.c_str(), threads);
        std::abort();
      }
      if (!measured || wall < point.wall_seconds) {
        measured = true;
        point.wall_seconds = wall;
        point.merge_seconds = merge;
        point.scan_seconds = wall > merge ? wall - merge : 0.0;
        point.queries = queries;
      }
    }
    std::printf("  threads=%zu  %8.3fs (scan %.3fs, merge %.3fs)  %12.0f q/s\n",
                threads, point.wall_seconds, point.scan_seconds,
                point.merge_seconds,
                point.wall_seconds > 0
                    ? static_cast<double>(point.queries) / point.wall_seconds
                    : 0.0);
    points.push_back(point);
  }
  if (prev != nullptr) {
    setenv("CLOUDDNS_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("CLOUDDNS_THREADS");
  }
  std::printf("  outputs byte-identical across thread counts\n");
  WriteScalingResults(bench_name, points);
}

/// The cold sweep is opt-in like the scaling sweep: it deletes and
/// rebuilds the whole dataset cache twice, which only the bench CI job
/// should pay for.
inline bool ColdSweepRequested() {
  return std::getenv("CLOUDDNS_COLD_SWEEP") != nullptr;
}

/// Cold-path thread sweep (CLOUDDNS_COLD_SWEEP): clears the dataset cache
/// and rebuilds every dataset from scratch at 1 and 8 worker threads,
/// recording "<bench>_cold" points in BENCH_scaling.json (gated by
/// tools/check_scaling.cmake: cold 8T must beat cold 1T). `build` must
/// re-create all datasets through analysis::LoadOrRun and return the
/// total capture-record count. After each rebuild the cache artifacts are
/// fingerprinted (CRC32C of every file, name-sorted) and the sweep aborts
/// on any difference — the executable form of the parallel cold path's
/// byte-identity contract (zone build/signing fan-out, block-parallel
/// framed codec).
template <typename BuildFn>
void RunColdSweep(const std::string& bench_name, BuildFn build) {
  namespace fs = std::filesystem;
  const std::string cache_dir = analysis::DefaultCacheDir();
  const char* prev = std::getenv("CLOUDDNS_THREADS");
  const std::string saved = prev != nullptr ? prev : "";
  auto fingerprint = [&cache_dir] {
    std::vector<std::pair<std::string, std::uint32_t>> files;
    std::error_code ec;
    for (fs::directory_iterator it(cache_dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      std::vector<std::uint8_t> bytes;
      if (!base::io::ReadFileBytes(it->path().string(), bytes).ok()) continue;
      files.emplace_back(it->path().filename().string(),
                         base::io::Crc32c(bytes));
    }
    std::sort(files.begin(), files.end());
    std::string digest;
    for (const auto& [file, crc] : files) {
      digest += file + ":" + std::to_string(crc) + "\n";
    }
    return digest;
  };
  std::vector<ScalingPoint> points;
  std::string baseline_digest;
  std::printf("\nCold-path sweep (CLOUDDNS_COLD_SWEEP):\n");
  for (std::size_t threads : {1u, 8u}) {
    std::error_code ec;
    fs::remove_all(cache_dir, ec);
    setenv("CLOUDDNS_THREADS", std::to_string(threads).c_str(), 1);
    ScalingPoint point;
    point.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    point.queries = build();
    point.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    const std::string digest = fingerprint();
    if (baseline_digest.empty()) {
      baseline_digest = digest;
    } else if (digest != baseline_digest) {
      std::fprintf(stderr,
                   "FATAL: %s cold rebuild at %zu threads produced different "
                   "cache artifacts than the 1-thread rebuild — the parallel "
                   "cold path broke byte-identity\n",
                   bench_name.c_str(), threads);
      std::abort();
    }
    std::printf("  threads=%zu  %8.3fs cold rebuild  %12.0f q/s\n", threads,
                point.wall_seconds,
                point.wall_seconds > 0
                    ? static_cast<double>(point.queries) / point.wall_seconds
                    : 0.0);
    points.push_back(point);
  }
  if (prev != nullptr) {
    setenv("CLOUDDNS_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("CLOUDDNS_THREADS");
  }
  std::printf("  cold artifacts byte-identical across thread counts\n");
  WriteScalingResults(bench_name + "_cold", points);
}

inline cloud::ScenarioConfig StandardConfig(cloud::Vantage vantage, int year) {
  cloud::ScenarioConfig config;
  config.vantage = vantage;
  config.year = year;
  std::uint64_t base =
      vantage == cloud::Vantage::kRoot ? 220'000 : 260'000;
  // Client demand grows across the study years in proportion to the
  // paper's Table 3 totals (normalized to 2018), so the year-over-year
  // growth directions reproduce.
  auto t3_2018 = *analysis::paper::Table3(vantage, 2018);
  auto t3_now = *analysis::paper::Table3(vantage, year);
  config.client_queries = static_cast<std::uint64_t>(
      static_cast<double>(base) * t3_now.queries_total_b /
      t3_2018.queries_total_b);
  return config;
}

/// The Fig. 3 longitudinal window: September 2019 through April 2020,
/// Google's fleet only, monthly buckets. The .nz variant injects the
/// February 2020 cyclic-dependency misconfiguration.
inline cloud::ScenarioConfig LongitudinalGoogleConfig(cloud::Vantage vantage) {
  cloud::ScenarioConfig config;
  config.vantage = vantage;
  config.year = 2020;
  config.client_queries = 500'000;
  config.window_start = sim::TimeFromCivil({2019, 9, 1});
  config.window_end = sim::TimeFromCivil({2020, 5, 1});
  config.google_only = true;
  config.inject_cyclic_event = vantage == cloud::Vantage::kNz;
  return config;
}

inline std::string ProviderName(cloud::Provider provider) {
  return std::string(cloud::ToString(provider));
}

}  // namespace clouddns::bench
