// bench_e2e: end-to-end benchmark of the clouddns pipeline.
//
// Four closed-loop batch workloads drive the system only through its public
// entry points (analysis::LoadOrRun, cloud::RunScenario, the
// analysis::Compute* family, resolver::RecursiveResolver::Resolve, the zone
// builder and the codecs). The next unit of work starts when the previous
// one returns; there is no arrival schedule.
//
// Untraced iterations give the end-to-end metrics. A traced run (--trace)
// alternates untraced iterations with traced ones, in which every
// LoadOrRun call is replaced by the same sequence of public layer calls and
// each call is timed as a span. Span self times give the per-layer
// metrics; the library itself carries no instrumentation for this.
//
// bench/e2e/README.md defines every metric, workload and bound.
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/context_cache.h"
#include "base/threads.h"
#include "bench/common.h"
#include "capture/columnar.h"
#include "capture/sharded.h"
#include "cloud/workload.h"
#include "resolver/resolver.h"
#include "server/auth_server.h"
#include "server/leaf_auth.h"
#include "tests/testutil.h"
#include "zone/dnssec.h"
#include "zone/zone_builder.h"

extern char** environ;

using namespace clouddns;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload sizes. Full runs are sized so that one iteration takes at most
// about six seconds on a 4-lane host, which lets a 12-second run take at
// least three iterations and report a median; --quick shrinks every input
// for the smoke test.

/// Share of bench::StandardConfig's client-query budget simulated per
/// Table 3 dataset (cold_table3 and warm_suite).
constexpr double kDatasetScale = 0.125;
/// Client queries of the faulted Fig. 3b configuration (fault_event).
constexpr std::uint64_t kFaultQueries = 60'000;
/// Resolutions per resolver_stack iteration.
constexpr std::uint64_t kResolutions = 200'000;
constexpr std::uint64_t kQuickQueries = 5'000;
constexpr std::uint64_t kQuickResolutions = 20'000;
/// Scenario zone_scale at --quick: a quarter of the default, as the unit
/// tests use, because zone build and signing dominate a 5k-query dataset.
constexpr double kQuickZoneScale = 0.0005;
/// .nl delegations in resolver_stack: the scenarios' .nl zone at their
/// default zone_scale (5.9 M domains x 0.002).
constexpr std::size_t kNlDelegations = 11'800;

/// sha256 of each workload's rendered report at kGoldenSeed and full size.
/// A mismatch fails every op of the iteration. Regenerate by running
/// `bench_e2e --workload all --seed 20201027` and copying the
/// `report_sha256` lines, and only when an output change is intended.
constexpr std::uint64_t kGoldenSeed = 20201027;
struct GoldenDigest {
  const char* workload;
  const char* sha256;
};
constexpr GoldenDigest kGoldenDigests[] = {
    {"cold_table3",
     "a52518e0b505aaefee123c07c0795893edf29dc869aefb6c65098abb5c44a13f"},
    {"warm_suite",
     "a0b79a0b92593a47dc7945160ff454991e093cb3ea9b8d2f414f3735119186ce"},
    {"fault_event",
     "d776ee899d002f8aee553a7250d4d3dd3496a2c2ac8a82c7e8a27eba7bb7c098"},
    {"resolver_stack",
     "090054498678b1aff66ec7ca1cb0f9040252e16d8885a818c83a51b171cc3894"},
};

/// Every per-layer metric a traced run reports, on every workload (0 where
/// the workload does not exercise the layer).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"cloud.setup_s", "s"},
    {"cloud.simulate_s", "s"},
    {"cloud.client_queries", "count"},
    {"cloud.workload_next_ns", "ns"},
    {"zone.build_s", "s"},
    {"zone.sign_s", "s"},
    {"resolver.self_s", "s"},
    {"resolver.resolve_p50_us", "us"},
    {"resolver.resolve_p99_us", "us"},
    {"resolver.upstream_per_client", "ratio"},
    {"resolver.cache_answer_share", "fraction"},
    {"resolver.retransmits_per_client", "ratio"},
    {"resolver.timeouts_per_client", "ratio"},
    {"resolver.failovers_per_client", "ratio"},
    {"server.auth_s", "s"},
    {"server.auth_ns_per_packet", "ns"},
    {"server.leaf_s", "s"},
    {"server.leaf_packets_per_client", "ratio"},
    {"server.captured_per_client", "ratio"},
    {"capture.flatten_s", "s"},
    {"capture.encode_s", "s"},
    {"capture.encoded_bytes_per_record", "B"},
    {"capture.shard_index_write_s", "s"},
    {"capture.decode_s", "s"},
    {"capture.reshard_s", "s"},
    {"capture.disk_bytes_per_record", "B"},
    {"base.io.frame_s", "s"},
    {"base.io.write_s", "s"},
    {"base.io.bytes_written", "B"},
    {"base.io.read_s", "s"},
    {"base.io.unwrap_s", "s"},
    {"base.io.bytes_read", "B"},
    {"analysis.context_save_s", "s"},
    {"analysis.context_load_s", "s"},
    {"entrada.scan_s", "s"},
    {"entrada.records_per_s", "1/s"},
    {"analysis.render_s", "s"},
    {"trace_overhead", "fraction"},
};

/// Named spans must explain at least this share of traced wall time.
constexpr double kMinSpanCoverage = 0.95;

const char* const kWorkloads[] = {"cold_table3", "warm_suite", "fault_event",
                                  "resolver_stack"};

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  std::size_t threads = 0;
  double seconds = 0;
  bool trace = false;
  bool quick = false;
  std::string out;
  std::string work_dir = "bench_e2e_work";
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: bench_e2e --workload "
      "{cold_table3|warm_suite|fault_event|resolver_stack|all}\n"
      "                 [--seed N] [--threads N] [--seconds S] [--trace]\n"
      "                 [--quick] [--out results.json] [--work-dir DIR]\n");
}

bool ParseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_e2e: %s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    auto number = [](const char* text, double& out) {
      char* end = nullptr;
      out = std::strtod(text, &end);
      return end != text && *end == '\0' && out >= 0;
    };
    double parsed = 0;
    const char* v = nullptr;
    if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--workload" || arg == "--out" || arg == "--work-dir") {
      if ((v = value(arg.c_str())) == nullptr) return false;
      (arg == "--workload" ? opt.workload
                           : (arg == "--out" ? opt.out : opt.work_dir)) = v;
    } else if (arg == "--seed") {
      if ((v = value("--seed")) == nullptr) return false;
      char* end = nullptr;
      opt.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "bench_e2e: bad --seed '%s'\n", v);
        return false;
      }
    } else if (arg == "--threads") {
      if ((v = value("--threads")) == nullptr) return false;
      if (!number(v, parsed) || parsed < 1 || parsed > 256) {
        std::fprintf(stderr, "bench_e2e: --threads must be 1..256\n");
        return false;
      }
      opt.threads = static_cast<std::size_t>(parsed);
    } else if (arg == "--seconds") {
      if ((v = value("--seconds")) == nullptr) return false;
      if (!number(v, parsed)) {
        std::fprintf(stderr, "bench_e2e: bad --seconds '%s'\n", v);
        return false;
      }
      opt.seconds = parsed;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (opt.workload.empty()) {
    std::fprintf(stderr, "bench_e2e: --workload is required\n");
    return false;
  }
  return true;
}

std::size_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

// ---------------------------------------------------------------------------
// Statistics and metric series

/// Linear-interpolation quantile (the "inclusive" method).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Series {
  std::string unit;
  std::vector<double> values;
  bool mean = false;

  /// The reported value: the median, or the mean for a series marked so.
  [[nodiscard]] double Value() const {
    if (!mean || values.empty()) return Median(values);
    double sum = 0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
  }
};

/// Named series in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           bool mean = false) {
    Series& series = Find(name, unit);
    series.mean = mean;
    series.values.push_back(value);
  }
  [[nodiscard]] const std::vector<std::pair<std::string, Series>>& items()
      const {
    return items_;
  }
  [[nodiscard]] const Series* Get(const std::string& name) const {
    for (const auto& [key, series] : items_) {
      if (key == name) return &series;
    }
    return nullptr;
  }

 private:
  Series& Find(const std::string& name, const std::string& unit) {
    for (auto& [key, series] : items_) {
      if (key == name) return series;
    }
    items_.push_back({name, Series{unit, {}}});
    return items_.back().second;
  }
  std::vector<std::pair<std::string, Series>> items_;
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around each public call.

std::int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int dataset = -1;
  int iteration = -1;
  /// An aggregate span stands for `calls` calls of a hot loop (one span
  /// per Resolve() would be millions); `busy_ns` sums their durations.
  std::uint64_t calls = 1;
  std::int64_t busy_ns = 0;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void set_iteration(int iteration) { iteration_ = iteration; }

  /// Runs `fn`, recording it as a span when tracing is on.
  template <typename Fn>
  decltype(auto) Run(const char* name, int dataset, Fn&& fn) {
    if (!enabled_) return fn();
    Scope scope(*this, name, dataset);
    return fn();
  }

  int Begin(const char* name, int dataset) {
    Span span;
    span.name = name;
    span.start_ns = NowNs();
    span.parent = current_;
    span.dataset = dataset;
    span.iteration = iteration_;
    spans_.push_back(span);
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void End(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = NowNs();
    span.busy_ns = span.end_ns - span.start_ns;
    current_ = span.parent;
  }

  /// Records an aggregate span under `parent`; returns its index.
  int AddAggregate(const char* name, int parent, std::uint64_t calls,
                   std::int64_t busy_ns, std::int64_t start_ns,
                   std::int64_t end_ns) {
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.parent = parent;
    span.iteration = iteration_;
    span.calls = calls;
    span.busy_ns = busy_ns;
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int dataset)
        : tracer_(tracer), index_(tracer.Begin(name, dataset)) {}
    ~Scope() { tracer_.End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  bool enabled_ = false;
  int iteration_ = -1;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// Self time (busy minus the busy time of direct children) per span name,
/// in seconds, over spans [first, spans.size()).
std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans,
                                          std::size_t first) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent >= static_cast<int>(first)) {
      child_ns[static_cast<std::size_t>(spans[i].parent)] += spans[i].busy_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = first; i < spans.size(); ++i) {
    self[spans[i].name] +=
        static_cast<double>(spans[i].busy_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

// ---------------------------------------------------------------------------
// One workload's results.

struct Measured {
  double wall_s = 0;
  double setup_s = 0;
  double allocs = 0;
  double peak_rss_mb = 0;
};

class WorkloadRun {
 public:
  WorkloadRun(std::string workload, const Options& opt)
      : workload_(std::move(workload)), opt_(opt) {}

  Tracer& tracer() { return tracer_; }
  MetricSet& metrics() { return metrics_; }

  /// Counts one op (a dataset load+analyze, or one resolution).
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      Problem(what);
    }
  }
  void Ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records a failed check; the run exits non-zero.
  void Problem(const std::string& what) {
    checks_ok_ = false;
    if (problems_.size() < 20) problems_.push_back(what);
  }

  /// Runs iterations until --seconds have passed (at least three, or two
  /// of each kind when traced), or exactly `default_iterations` when no
  /// time budget is given; --quick runs one. A traced run alternates
  /// untraced and traced iterations.
  template <typename Fn>
  void Iterate(int default_iterations, Fn&& iteration) {
    const int target = opt_.quick ? 1 : default_iterations;
    const int min_iterations = opt_.quick ? 1 : (opt_.trace ? 2 : 3);
    const auto start = Clock::now();
    for (int done = 0;;) {
      iteration(opt_.trace && done % 2 == 1);
      ++done;
      if (opt_.trace && done % 2 == 1) continue;
      const int per_kind = opt_.trace ? done / 2 : done;
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (opt_.seconds > 0 && !opt_.quick) {
        if (per_kind >= min_iterations && elapsed >= opt_.seconds) break;
      } else if (per_kind >= target) {
        break;
      }
    }
  }

  /// Runs `body` as one timed iteration: snapshots allocation and set-up
  /// counters and (traced) wraps the body in the root "iteration" span.
  /// The iteration's peak RSS is VmHWM after a reset at its start: a
  /// high-water mark over the whole run would grow with the iteration
  /// count, which depends on the host's speed. Free heap the previous
  /// iteration left resident is returned first (malloc_trim); how much of
  /// it glibc keeps depends on thread timing, not on the work.
  template <typename Fn>
  Measured Measure(bool traced, Fn&& body) {
    tracer_.set_enabled(traced);
    tracer_.set_iteration(iteration_);
    malloc_trim(0);
    bench::ResetPeakRss();
    const std::uint64_t allocs0 = bench::AllocCount();
    const std::uint64_t setup0 = base::PhaseNanos(base::Phase::kSetup);
    const auto start = Clock::now();
    const int root = traced ? tracer_.Begin("iteration", -1) : -1;
    body();
    if (root >= 0) tracer_.End(root);
    Measured m;
    m.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    m.setup_s = static_cast<double>(base::PhaseNanos(base::Phase::kSetup) -
                                    setup0) *
                1e-9;
    m.allocs = static_cast<double>(bench::AllocCount() - allocs0);
    m.peak_rss_mb = bench::PeakRssMb();
    tracer_.set_enabled(false);
    ++iteration_;
    (traced ? traced_walls_ : untraced_walls_).push_back(m.wall_s);
    if (traced) {
      // Coverage: busy time of the root's direct children. The largest
      // stretch no child covers is remembered to name the gap.
      const auto& spans = tracer_.spans();
      const Span& top = spans[static_cast<std::size_t>(root)];
      std::int64_t covered_until = top.start_ns;
      const char* after = "iteration start";
      for (std::size_t i = static_cast<std::size_t>(root) + 1;
           i < spans.size(); ++i) {
        if (spans[i].parent != root) continue;
        covered_ns_ += spans[i].busy_ns;
        if (spans[i].start_ns - covered_until > largest_gap_ns_) {
          largest_gap_ns_ = spans[i].start_ns - covered_until;
          largest_gap_after_ = after;
        }
        if (spans[i].end_ns > covered_until) {
          covered_until = spans[i].end_ns;
          after = spans[i].name;
        }
      }
      if (top.end_ns - covered_until > largest_gap_ns_) {
        largest_gap_ns_ = top.end_ns - covered_until;
        largest_gap_after_ = after;
      }
      traced_ns_ += top.busy_ns;
    }
    return m;
  }

  /// Index of the first span of the iteration Measure() runs next.
  [[nodiscard]] std::size_t span_mark() const { return tracer_.spans().size(); }

  /// Books one set-up's duration as a setup_s sample.
  void AddSetup(double seconds) { metrics_.Add("setup_s", "s", seconds); }

  /// Books the other end-to-end metrics of one untraced iteration; `units`
  /// is the throughput_qps numerator and the allocs_per_query denominator.
  void AddEndToEnd(const Measured& m, double units) {
    metrics_.Add("wall_s", "s", m.wall_s);
    metrics_.Add("throughput_qps", "1/s", Ratio(units, m.wall_s));
    // A mean: one iteration's peak depends on how the pool threads'
    // allocations overlap, scattering by ±5% around a centre that the mean
    // of a run's iterations finds better than their median.
    metrics_.Add("peak_rss_mb", "MiB", m.peak_rss_mb, /*mean=*/true);
    metrics_.Add("allocs_per_query", "count", Ratio(m.allocs, units));
  }

  /// Adds one per-layer sample (one traced iteration or set-up).
  void AddLayer(const std::string& name, double value) {
    for (const LayerMetric& metric : kLayerMetrics) {
      if (name == metric.name) {
        layers_.Add(name, metric.unit, value);
        return;
      }
    }
    Problem("internal: undeclared per-layer metric " + name);
  }

  /// Checks a rendered report against the first iteration's and, at the
  /// golden seed and full size, against the pinned digest. Returns false
  /// on a mismatch (the caller fails the iteration's ops).
  bool CheckReport(const std::string& report) {
    if (first_report_.empty()) {
      first_report_ = report;
      report_sha_ = testutil::Sha256Hex(report);
      if (opt_.seed == kGoldenSeed && !opt_.quick) {
        for (const GoldenDigest& golden : kGoldenDigests) {
          if (workload_ == golden.workload && report_sha_ != golden.sha256) {
            golden_ok_ = false;
            Problem("report sha256 " + report_sha_ +
                    " differs from the pinned " + golden.sha256);
          }
        }
      }
      return golden_ok_;
    }
    return golden_ok_ && report == first_report_;
  }

  /// Adds trace_overhead, checks span coverage, and fills unmeasured
  /// per-layer metrics with 0.
  void FinishLayers() {
    if (!opt_.trace) return;
    AddLayer("trace_overhead",
             Ratio(Median(traced_walls_), Median(untraced_walls_)) - 1.0);
    const double coverage =
        Ratio(static_cast<double>(covered_ns_), static_cast<double>(traced_ns_));
    if (coverage < kMinSpanCoverage) {
      Problem("named spans cover only " + std::to_string(coverage * 100) +
              "% of traced wall; largest gap " +
              std::to_string(static_cast<double>(largest_gap_ns_) * 1e-6) +
              " ms after " + largest_gap_after_);
    }
    span_coverage_ = coverage;
    for (const LayerMetric& metric : kLayerMetrics) {
      if (layers_.Get(metric.name) == nullptr) AddLayer(metric.name, 0.0);
    }
  }

  [[nodiscard]] bool ok() const { return checks_ok_ && failed_ == 0; }

  void Print() const;
  void WriteJson(const std::string& path) const;
  void WriteTrace(const std::string& path) const;

 private:
  std::string workload_;
  Options opt_;
  Tracer tracer_;
  MetricSet metrics_;
  MetricSet layers_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
  bool golden_ok_ = true;
  std::vector<std::string> problems_;
  std::string first_report_;
  std::string report_sha_;
  int iteration_ = 0;
  std::vector<double> untraced_walls_;
  std::vector<double> traced_walls_;
  std::int64_t covered_ns_ = 0;
  std::int64_t traced_ns_ = 0;
  std::int64_t largest_gap_ns_ = 0;
  const char* largest_gap_after_ = "";
  double span_coverage_ = 0;
};

// ---------------------------------------------------------------------------
// Output

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

#ifndef CLOUDDNS_E2E_BUILD_TYPE
#define CLOUDDNS_E2E_BUILD_TYPE "unknown"
#endif

void WorkloadRun::Print() const {
  auto print_set = [this](const MetricSet& set) {
    for (const auto& [name, series] : set.items()) {
      std::printf("%s %s %.6g %s\n", workload_.c_str(), name.c_str(),
                  series.Value(), series.unit.c_str());
    }
  };
  print_set(metrics_);
  std::printf("%s error_rate %.6g fraction\n", workload_.c_str(),
              Ratio(static_cast<double>(failed_),
                    static_cast<double>(attempted_)));
  if (opt_.trace) print_set(layers_);
  std::printf("# %s report_sha256 %s\n", workload_.c_str(),
              report_sha_.c_str());
  for (const std::string& problem : problems_) {
    std::fprintf(stderr, "bench_e2e: %s: FAILED: %s\n", workload_.c_str(),
                 problem.c_str());
  }
}

void WorkloadRun::WriteJson(const std::string& path) const {
  std::string json = "{\"workloads\": [\n{";
  auto field = [&json](const char* key, const std::string& value) {
    json += "\"" + std::string(key) + "\": " + value + ", ";
  };
  field("workload", JsonString(workload_));
  field("seed", std::to_string(opt_.seed));
  field("threads", std::to_string(opt_.threads));
  field("lanes",
        std::to_string(base::ThreadPool::Shared().lane_count()));
  field("nproc", std::to_string(OnlineCpus()));
  field("build_type", JsonString(CLOUDDNS_E2E_BUILD_TYPE));
  field("compiler", JsonString(CompilerName()));
  field("crc32c", JsonString(base::io::Crc32cBackend()));
  field("trace", opt_.trace ? "true" : "false");
  field("quick", opt_.quick ? "true" : "false");
  field("seconds", JsonNumber(opt_.seconds));
  field("iterations", std::to_string(untraced_walls_.size()));
  field("traced_iterations", std::to_string(traced_walls_.size()));
  if (opt_.trace) field("span_coverage", JsonNumber(span_coverage_));
  field("attempted", std::to_string(attempted_));
  field("failed", std::to_string(failed_));
  field("correct", ok() ? "true" : "false");
  field("report_sha256", JsonString(report_sha_));
  std::string problems = "[";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    problems += (i ? ", " : "") + JsonString(problems_[i]);
  }
  field("problems", problems + "]");
  json += "\"metrics\": {";
  bool first = true;
  auto add_set = [&](const MetricSet& set) {
    for (const auto& [name, series] : set.items()) {
      json += std::string(first ? "\n  " : ",\n  ") + JsonString(name) +
              ": {\"value\": " + JsonNumber(series.Value()) +
              ", \"unit\": " + JsonString(series.unit) +
              ", \"p25\": " + JsonNumber(Quantile(series.values, 0.25)) +
              ", \"p75\": " + JsonNumber(Quantile(series.values, 0.75)) +
              ", \"n\": " + std::to_string(series.values.size()) + "}";
      first = false;
    }
  };
  add_set(metrics_);
  MetricSet error;
  error.Add("error_rate", "fraction",
            Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)));
  add_set(error);
  if (opt_.trace) add_set(layers_);
  json += "\n}}\n]}\n";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "bench_e2e: writing %s failed\n", path.c_str());
    }
  } else {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
  }
}

void WorkloadRun::WriteTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [", workload_.c_str());
  const auto& spans = tracer_.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"dataset\": %d, "
                 "\"iteration\": %d, \"calls\": %llu, \"busy_ns\": %lld}",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.dataset,
                 s.iteration, static_cast<unsigned long long>(s.calls),
                 static_cast<long long>(s.busy_ns));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Private cache directories

/// A fresh directory removed when the guard goes out of scope.
class OwnedDir {
 public:
  explicit OwnedDir(std::string path) : path_(std::move(path)) { Clear(); }
  ~OwnedDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  OwnedDir(const OwnedDir&) = delete;
  OwnedDir& operator=(const OwnedDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Empties the directory (between cold iterations).
  void Clear() const {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
  }

 private:
  std::string path_;
};

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// The artifact paths analysis::LoadOrRun uses for `config` in `dir`.
struct DatasetPaths {
  std::string capture;
  std::string context;
  std::string shards;
};

DatasetPaths PathsFor(const std::string& dir,
                      const cloud::ScenarioConfig& config) {
  const std::string stem = dir + "/" + analysis::CacheKey(config);
  return {stem + ".cdns", stem + ".ctx", stem + ".shards"};
}

/// CRC32C of each of a dataset's artifacts, as the cold sweep fingerprints
/// a cache directory; "" entries mark missing files.
std::string Fingerprint(const DatasetPaths& paths) {
  std::string digest;
  for (const std::string* path : {&paths.capture, &paths.context, &paths.shards}) {
    std::vector<std::uint8_t> bytes;
    digest += fs::path(*path).filename().string() + ":";
    if (base::io::ReadFileBytes(*path, bytes).ok()) {
      digest += std::to_string(base::io::Crc32c(bytes));
    }
    digest += "\n";
  }
  return digest;
}

bool StorageClean(const base::io::StorageCounters& storage) {
  return storage == base::io::StorageCounters{};
}

// ---------------------------------------------------------------------------
// Dataset paths through the pipeline: LoadOrRun, or (traced) the same
// sequence of public calls with a span around each.

/// Per-iteration layer tallies accumulated by the traced dataset paths.
struct LayerTally {
  double setup_s = 0;
  std::uint64_t issued = 0;
  std::uint64_t records = 0;
  std::uint64_t encoded_bytes = 0;
  cloud::RobustnessCounters robustness;
  std::uint64_t leaf_queries = 0;

  void AddScenario(const cloud::ScenarioResult& result) {
    issued += result.client_queries_issued;
    records += result.records.size();
    leaf_queries += result.leaf_queries;
    robustness.upstream_queries += result.robustness.upstream_queries;
    robustness.retransmits += result.robustness.retransmits;
    robustness.timeouts += result.robustness.timeouts;
    robustness.failovers += result.robustness.failovers;
  }
};

/// LoadOrRun's cold branch: simulate, flatten, encode, frame, write, then
/// the context and shard-index sidecars.
cloud::ScenarioResult TracedColdBuild(WorkloadRun& run, int dataset,
                                      const cloud::ScenarioConfig& config,
                                      const std::string& dir,
                                      LayerTally& tally) {
  Tracer& tr = run.tracer();
  const DatasetPaths paths = PathsFor(dir, config);
  const std::uint64_t setup0 = base::PhaseNanos(base::Phase::kSetup);
  cloud::ScenarioResult result = tr.Run(
      "cloud.run_scenario", dataset, [&] { return cloud::RunScenario(config); });
  tally.setup_s +=
      static_cast<double>(base::PhaseNanos(base::Phase::kSetup) - setup0) *
      1e-9;
  result.config = config;
  std::vector<std::uint8_t> framed;
  {
    const capture::CaptureBuffer flat = tr.Run(
        "capture.flatten", dataset, [&] { return result.records.FlattenCopy(); });
    const std::vector<std::uint8_t> payload = tr.Run(
        "capture.encode", dataset, [&] { return capture::EncodeColumnar(flat); });
    tally.encoded_bytes += payload.size();
    framed = tr.Run("base.io.frame", dataset, [&] {
      return base::io::WrapFrame(base::io::kTagCapture, payload);
    });
  }
  bool ok = tr.Run("base.io.write", dataset, [&] {
              return base::io::WriteFileAtomic(paths.capture, framed);
            }).ok();
  ok = ok && tr.Run("analysis.context_save", dataset, [&] {
               return analysis::SaveScenarioContextStatus(paths.context, result);
             }).ok();
  ok = ok && tr.Run("capture.shard_index_write", dataset, [&] {
               return capture::WriteShardIndexStatus(paths.shards,
                                                     result.records);
             }).ok();
  if (!ok) ++result.storage.detected;
  tally.AddScenario(result);
  return result;
}

/// LoadOrRun's warm branch: read, verify, decode, reshard, load context.
cloud::ScenarioResult TracedWarmLoad(WorkloadRun& run, int dataset,
                                     const cloud::ScenarioConfig& config,
                                     const std::string& dir) {
  Tracer& tr = run.tracer();
  const DatasetPaths paths = PathsFor(dir, config);
  cloud::ScenarioResult result;
  bool ok = true;
  std::optional<capture::CaptureBuffer> flat;
  {
    std::vector<std::uint8_t> bytes;
    ok = tr.Run("base.io.read", dataset, [&] {
           return base::io::ReadFileBytes(paths.capture, bytes);
         }).ok();
    std::vector<std::uint8_t> payload;
    bool framed = false;
    ok = ok && tr.Run("base.io.unwrap", dataset, [&] {
                 return base::io::UnwrapFrame(bytes, base::io::kTagCapture,
                                              payload, framed);
               }).ok();
    ok = ok && framed;
    if (ok) {
      flat = tr.Run("capture.decode", dataset,
                    [&] { return capture::DecodeColumnar(payload); });
    }
  }
  ok = ok && flat.has_value();
  if (ok) {
    base::io::IoStatus shard_status;
    result.records = tr.Run("capture.reshard", dataset, [&] {
      return capture::ReshardFromIndex(paths.shards, std::move(*flat),
                                       &shard_status);
    });
    ok = shard_status.ok();
  }
  ok = ok && tr.Run("analysis.context_load", dataset, [&] {
               return analysis::LoadScenarioContextStatus(paths.context, result);
             }).ok();
  result.config = config;
  if (!ok) ++result.storage.detected;
  return result;
}

// ---------------------------------------------------------------------------
// Dataset configurations

std::vector<cloud::ScenarioConfig> Table3Configs(const Options& opt) {
  std::vector<cloud::ScenarioConfig> configs;
  for (cloud::Vantage vantage :
       {cloud::Vantage::kNl, cloud::Vantage::kNz, cloud::Vantage::kRoot}) {
    for (int year : {2018, 2019, 2020}) {
      cloud::ScenarioConfig config = bench::StandardConfig(vantage, year);
      config.client_queries =
          opt.quick ? kQuickQueries
                    : static_cast<std::uint64_t>(
                          static_cast<double>(config.client_queries) *
                          kDatasetScale);
      if (opt.quick) config.zone_scale = kQuickZoneScale;
      // A seed of its own per dataset, none shared between two --seed
      // values. With one seed for all nine, the datasets of a year share
      // their resolver fleets, so a seed's allocation and memory figures
      // move together instead of averaging out over the nine.
      config.seed = opt.seed * 9 + configs.size();
      config.threads = opt.threads;
      configs.push_back(config);
    }
  }
  return configs;
}

/// The Fig. 3b faulted configuration (bench_fig3b_event's event run).
cloud::ScenarioConfig FaultConfig(const Options& opt) {
  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNz;
  config.year = 2020;
  config.client_queries = opt.quick ? kQuickQueries : kFaultQueries;
  if (opt.quick) config.zone_scale = kQuickZoneScale;
  config.window_start = sim::TimeFromCivil({2020, 2, 3});
  config.window_end = sim::TimeFromCivil({2020, 2, 27});
  config.google_only = true;
  config.warmup_fraction = 0.1;
  config.inject_cyclic_event = true;
  config.fault_preset = cloud::FaultPreset::kNzEventLoss;
  config.seed = opt.seed;
  config.threads = opt.threads;
  return config;
}

std::string DatasetLabel(const cloud::ScenarioConfig& config) {
  return std::string(cloud::ToString(config.vantage)) + " " +
         std::to_string(config.year);
}

// ---------------------------------------------------------------------------
// cold_table3 and fault_event: datasets built cold through LoadOrRun.

/// Table 3 row of one dataset plus its simulation counters.
std::vector<std::string> ColdRow(const cloud::ScenarioConfig& config,
                                 const cloud::ScenarioResult& result,
                                 const analysis::DatasetStats& stats) {
  return {DatasetLabel(config),
          analysis::Count(result.client_queries_issued),
          analysis::Count(stats.queries_total),
          analysis::Count(stats.queries_valid),
          analysis::Percent(Ratio(static_cast<double>(stats.queries_valid),
                                  static_cast<double>(stats.queries_total))),
          analysis::Count(stats.resolvers_exact),
          analysis::Fixed(stats.resolvers_hll, 1),
          analysis::Count(stats.ases_exact),
          analysis::Fixed(stats.ases_hll, 1),
          analysis::Count(result.robustness.upstream_queries),
          analysis::Count(result.robustness.retransmits),
          analysis::Count(result.robustness.timeouts),
          analysis::Count(result.robustness.failovers),
          analysis::Count(result.leaf_queries)};
}

WorkloadRun RunCold(const std::string& name, const Options& opt,
                    const std::vector<cloud::ScenarioConfig>& configs,
                    int default_iterations, const std::string& work) {
  WorkloadRun run(name, opt);
  const OwnedDir cache(work + "/cache");
  std::vector<std::string> first_rows(configs.size());
  std::vector<std::string> first_prints(configs.size());

  run.Iterate(default_iterations, [&](bool traced) {
    cache.Clear();
    Tracer& tr = run.tracer();
    const std::size_t mark = run.span_mark();
    LayerTally tally;
    std::vector<cloud::ScenarioResult> results(configs.size());
    std::vector<std::string> rows(configs.size());
    std::string report;
    const Measured m = run.Measure(traced, [&] {
      analysis::TextTable table(
          {"dataset", "client queries", "captured", "valid", "valid%",
           "resolvers", "resolvers(HLL)", "ASes", "ASes(HLL)", "upstream",
           "retransmits", "timeouts", "failovers", "leaf"});
      for (std::size_t d = 0; d < configs.size(); ++d) {
        const int id = static_cast<int>(d);
        results[d] =
            traced ? TracedColdBuild(run, id, configs[d], cache.path(), tally)
                   : analysis::LoadOrRun(configs[d], cache.path());
        const analysis::DatasetStats stats = tr.Run("entrada.scan", id, [&] {
          return analysis::ComputeDatasetStats(results[d]);
        });
        tr.Run("analysis.render", id, [&] {
          std::vector<std::string> row = ColdRow(configs[d], results[d], stats);
          for (const std::string& cell : row) rows[d] += cell + "|";
          table.AddRow(std::move(row));
        });
      }
      report = tr.Run("analysis.render", -1, [&] { return table.Render(); });
    });

    // Checks, outside the timed region.
    const bool report_ok = run.CheckReport(report);
    double issued = 0;
    std::uint64_t records = 0;
    for (std::size_t d = 0; d < configs.size(); ++d) {
      const DatasetPaths paths = PathsFor(cache.path(), configs[d]);
      const std::string print = Fingerprint(paths);
      if (first_prints[d].empty()) first_prints[d] = print;
      if (first_rows[d].empty()) first_rows[d] = rows[d];
      const std::string label = DatasetLabel(configs[d]);
      bool ok = report_ok;
      if (!StorageClean(results[d].storage)) {
        ok = false;
        run.Problem(label + ": non-zero storage counters");
      }
      if (print != first_prints[d]) {
        ok = false;
        run.Problem(label + ": cache artifacts differ from iteration 0" +
                    std::string(traced ? " (traced)" : ""));
      }
      if (rows[d] != first_rows[d]) {
        ok = false;
        run.Problem(label + ": report row differs from iteration 0");
      }
      run.Op(ok, label + " load+analyze");
      issued += static_cast<double>(results[d].client_queries_issued);
      records += results[d].records.size();
    }
    if (!traced) {
      run.AddSetup(m.setup_s);
      run.AddEndToEnd(m, issued);
      return;
    }
    const std::map<std::string, double> self =
        SelfSeconds(tr.spans(), mark);
    auto self_of = [&self](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second;
    };
    const double issued_total = static_cast<double>(tally.issued);
    const double disk = static_cast<double>(DirBytes(cache.path()));
    run.AddLayer("cloud.setup_s", tally.setup_s);
    run.AddLayer("cloud.simulate_s",
                 self_of("cloud.run_scenario") - tally.setup_s);
    run.AddLayer("cloud.client_queries", issued_total);
    run.AddLayer("resolver.upstream_per_client",
                 Ratio(static_cast<double>(tally.robustness.upstream_queries),
                       issued_total));
    run.AddLayer("resolver.retransmits_per_client",
                 Ratio(static_cast<double>(tally.robustness.retransmits),
                       issued_total));
    run.AddLayer("resolver.timeouts_per_client",
                 Ratio(static_cast<double>(tally.robustness.timeouts),
                       issued_total));
    run.AddLayer("resolver.failovers_per_client",
                 Ratio(static_cast<double>(tally.robustness.failovers),
                       issued_total));
    run.AddLayer("server.leaf_packets_per_client",
                 Ratio(static_cast<double>(tally.leaf_queries), issued_total));
    run.AddLayer("server.captured_per_client",
                 Ratio(static_cast<double>(tally.records), issued_total));
    run.AddLayer("capture.flatten_s", self_of("capture.flatten"));
    run.AddLayer("capture.encode_s", self_of("capture.encode"));
    run.AddLayer("capture.encoded_bytes_per_record",
                 Ratio(static_cast<double>(tally.encoded_bytes),
                       static_cast<double>(tally.records)));
    run.AddLayer("capture.shard_index_write_s",
                 self_of("capture.shard_index_write"));
    run.AddLayer("capture.disk_bytes_per_record",
                 Ratio(disk, static_cast<double>(records)));
    run.AddLayer("base.io.frame_s", self_of("base.io.frame"));
    run.AddLayer("base.io.write_s", self_of("base.io.write"));
    run.AddLayer("base.io.bytes_written", disk);
    run.AddLayer("analysis.context_save_s", self_of("analysis.context_save"));
    run.AddLayer("entrada.scan_s", self_of("entrada.scan"));
    run.AddLayer("entrada.records_per_s",
                 Ratio(static_cast<double>(records), self_of("entrada.scan")));
    run.AddLayer("analysis.render_s", self_of("analysis.render"));
  });
  return run;
}

WorkloadRun RunColdTable3(const Options& opt, const std::string& work) {
  return RunCold("cold_table3", opt, Table3Configs(opt), 3, work);
}

WorkloadRun RunFaultEvent(const Options& opt, const std::string& work) {
  return RunCold("fault_event", opt, {FaultConfig(opt)}, 5, work);
}

// ---------------------------------------------------------------------------
// warm_suite: the nine datasets reloaded from a filled cache and analyzed
// the way the Table 3-6 and Figure 1/2/4/6 benches analyze them.

struct SuiteScan {
  analysis::DatasetStats stats;
  std::vector<analysis::ProviderShare> shares;
  analysis::JunkRatios junk;
  std::map<cloud::Provider, analysis::TransportMix> transport;
  std::map<cloud::Provider, std::map<std::string, double>> rrtypes;
  std::optional<analysis::GoogleSplit> google;
  std::vector<std::pair<cloud::Provider, analysis::ResolverFamilyCount>>
      families;
  std::vector<std::pair<cloud::Provider, analysis::EdnsStats>> edns;
};

SuiteScan ScanSuite(const cloud::ScenarioResult& result) {
  SuiteScan scan;
  scan.stats = analysis::ComputeDatasetStats(result);
  scan.shares = analysis::ComputeCloudShares(result);
  scan.junk = analysis::ComputeJunkRatios(result);
  const cloud::ScenarioConfig& config = result.config;
  if (config.vantage == cloud::Vantage::kRoot) return scan;
  scan.transport = analysis::ComputeTransportMixes(result);
  scan.rrtypes = analysis::ComputeRrTypeMixes(result);
  if (config.year != 2020) return scan;
  scan.google = analysis::ComputeGoogleSplit(result);
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    scan.families.emplace_back(
        provider, analysis::ComputeResolverFamilies(result, provider));
  }
  if (config.vantage == cloud::Vantage::kNl) {
    for (cloud::Provider provider :
         {cloud::Provider::kFacebook, cloud::Provider::kGoogle,
          cloud::Provider::kMicrosoft}) {
      scan.edns.emplace_back(provider,
                             analysis::ComputeEdnsStats(result, provider));
    }
  }
  return scan;
}

std::string RenderSuite(const std::string& label, const SuiteScan& scan) {
  using analysis::Count;
  using analysis::Fixed;
  std::string out = "== " + label + "\n";
  out += "queries " + Count(scan.stats.queries_total) + " valid " +
         Count(scan.stats.queries_valid) + " resolvers " +
         Count(scan.stats.resolvers_exact) + " (HLL " +
         Fixed(scan.stats.resolvers_hll, 1) + ") ASes " +
         Count(scan.stats.ases_exact) + " (HLL " +
         Fixed(scan.stats.ases_hll, 1) + ") junk " +
         Fixed(scan.junk.overall, 6) + "\n";
  analysis::TextTable providers({"provider", "queries", "share", "junk", "v4",
                                 "v6", "udp", "tcp", "A", "AAAA", "NS", "DS",
                                 "DNSKEY", "MX", "OTHER"});
  for (const analysis::ProviderShare& share : scan.shares) {
    std::vector<std::string> row = {bench::ProviderName(share.provider),
                                    Count(share.queries),
                                    Fixed(share.share, 6)};
    auto junk = scan.junk.per_provider.find(share.provider);
    row.push_back(junk == scan.junk.per_provider.end()
                      ? "-"
                      : Fixed(junk->second, 6));
    auto mix = scan.transport.find(share.provider);
    for (double value : {mix == scan.transport.end() ? -1.0 : mix->second.ipv4,
                         mix == scan.transport.end() ? -1.0 : mix->second.ipv6,
                         mix == scan.transport.end() ? -1.0 : mix->second.udp,
                         mix == scan.transport.end() ? -1.0 : mix->second.tcp}) {
      row.push_back(value < 0 ? "-" : Fixed(value, 6));
    }
    auto types = scan.rrtypes.find(share.provider);
    for (const char* type : {"A", "AAAA", "NS", "DS", "DNSKEY", "MX", "OTHER"}) {
      if (types == scan.rrtypes.end()) {
        row.push_back("-");
        continue;
      }
      auto it = types->second.find(type);
      row.push_back(it == types->second.end() ? "0" : Fixed(it->second, 6));
    }
    providers.AddRow(std::move(row));
  }
  out += providers.Render();
  if (scan.google) {
    out += "google public queries " + Count(scan.google->queries_public) +
           "/" + Count(scan.google->queries_total) + " resolvers " +
           Count(scan.google->resolvers_public) + "/" +
           Count(scan.google->resolvers_total) + "\n";
  }
  for (const auto& [provider, count] : scan.families) {
    out += "resolvers " + bench::ProviderName(provider) + " " +
           Count(count.total) + " v4 " + Count(count.v4) + " v6 " +
           Count(count.v6) + "\n";
  }
  for (const auto& [provider, edns] : scan.edns) {
    out += "edns " + bench::ProviderName(provider) + " at512 " +
           Fixed(edns.fraction_at_512, 6) + " upto1232 " +
           Fixed(edns.fraction_up_to_1232, 6) + " truncated " +
           Fixed(edns.truncated_udp, 6) + " cdf";
    for (const auto& [size, fraction] : edns.cdf) {
      out += " " + Fixed(size, 0) + ":" + Fixed(fraction, 6);
    }
    out += "\n";
  }
  return out;
}

/// warm_suite's set-up: fills `dir` cold, then one warm pass whose report
/// must equal the cold one. Returns the exit status for the child process
/// that runs it.
int FillCache(const std::vector<cloud::ScenarioConfig>& configs,
              const std::string& dir) {
  std::string reports[2];  // cold, warm
  bool clean = true;
  for (std::string& report : reports) {
    for (const cloud::ScenarioConfig& config : configs) {
      const cloud::ScenarioResult result = analysis::LoadOrRun(config, dir);
      clean = clean && StorageClean(result.storage);
      report += RenderSuite(DatasetLabel(config), ScanSuite(result));
    }
  }
  if (!clean) {
    std::fprintf(stderr, "bench_e2e: warm_suite set-up: non-zero storage "
                         "counters\n");
  }
  if (reports[0] != reports[1]) {
    std::fprintf(stderr, "bench_e2e: warm_suite set-up: warm report differs "
                         "from the cold report\n");
  }
  return clean && reports[0] == reports[1] ? 0 : 1;
}

WorkloadRun RunWarmSuite(const Options& opt, const std::string& work) {
  WorkloadRun run("warm_suite", opt);
  const std::vector<cloud::ScenarioConfig> configs = Table3Configs(opt);

  // Set-up, once per run (each fill is a full cold_table3 iteration). A
  // child process fills the cache, so the timed iterations start from a
  // heap the fill never touched, as a rerun of the analysis would; no
  // thread has started yet, so the fork is safe.
  const OwnedDir cache(work + "/cache");
  {
    const auto start = Clock::now();
    std::fflush(nullptr);
    const pid_t child = fork();
    if (child == 0) _exit(FillCache(configs, cache.path()));
    int status = 0;
    while (child > 0 && waitpid(child, &status, 0) < 0) {
    }
    run.AddSetup(std::chrono::duration<double>(Clock::now() - start).count());
    if (child < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      run.Problem("set-up: filling the cache failed");
    }
  }
  const double disk = static_cast<double>(DirBytes(cache.path()));

  std::vector<std::string> first_sections(configs.size());
  run.Iterate(20, [&](bool traced) {
    Tracer& tr = run.tracer();
    const std::size_t mark = run.span_mark();
    std::vector<std::string> sections(configs.size());
    std::vector<bool> clean(configs.size(), true);
    std::uint64_t records = 0;
    std::string report;
    const Measured m = run.Measure(traced, [&] {
      for (std::size_t d = 0; d < configs.size(); ++d) {
        const int id = static_cast<int>(d);
        const cloud::ScenarioResult result =
            traced ? TracedWarmLoad(run, id, configs[d], cache.path())
                   : analysis::LoadOrRun(configs[d], cache.path());
        clean[d] = StorageClean(result.storage);
        records += result.records.size();
        const SuiteScan scan =
            tr.Run("entrada.scan", id, [&] { return ScanSuite(result); });
        sections[d] = tr.Run("analysis.render", id, [&] {
          return RenderSuite(DatasetLabel(configs[d]), scan);
        });
      }
      for (const std::string& section : sections) report += section;
    });

    const bool report_ok = run.CheckReport(report);
    for (std::size_t d = 0; d < configs.size(); ++d) {
      if (first_sections[d].empty()) first_sections[d] = sections[d];
      const std::string label = DatasetLabel(configs[d]);
      bool ok = report_ok;
      if (!clean[d]) {
        ok = false;
        run.Problem(label + ": non-zero storage counters");
      }
      if (sections[d] != first_sections[d]) {
        ok = false;
        run.Problem(label + ": report section differs from iteration 0");
      }
      run.Op(ok, label + " load+analyze");
    }
    if (m.setup_s > 0) {
      run.Problem("a warm load ran the simulation (cache miss)");
    }
    if (!traced) {
      run.AddEndToEnd(m, static_cast<double>(records));
      return;
    }
    const std::map<std::string, double> self = SelfSeconds(tr.spans(), mark);
    auto self_of = [&self](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second;
    };
    run.AddLayer("capture.decode_s", self_of("capture.decode"));
    run.AddLayer("capture.reshard_s", self_of("capture.reshard"));
    run.AddLayer("capture.disk_bytes_per_record",
                 Ratio(disk, static_cast<double>(records)));
    run.AddLayer("base.io.read_s", self_of("base.io.read"));
    run.AddLayer("base.io.unwrap_s", self_of("base.io.unwrap"));
    run.AddLayer("base.io.bytes_read", disk);
    run.AddLayer("analysis.context_load_s", self_of("analysis.context_load"));
    run.AddLayer("entrada.scan_s", self_of("entrada.scan"));
    run.AddLayer("entrada.records_per_s",
                 Ratio(static_cast<double>(records), self_of("entrada.scan")));
    run.AddLayer("analysis.render_s", self_of("analysis.render"));
  });
  return run;
}

// ---------------------------------------------------------------------------
// resolver_stack: a root and a signed .nl zone behind authoritative servers,
// a leaf service as default route, and two resolvers (2020-style with
// q-min and validation, 2018-style without) fed by one workload generator.

dns::Name N(const std::string& text) { return *dns::Name::Parse(text); }
net::IpAddress Ip(const std::string& text) { return *net::IpAddress::Parse(text); }

const char* const kRootV4[] = {"198.41.0.4", "198.41.1.4"};
const char* const kRootV6[] = {"2001:500:1::53", "2001:500:2::53"};

std::vector<zone::NameserverSpec> NlNameservers() {
  std::vector<zone::NameserverSpec> ns;
  for (int s = 1; s <= 3; ++s) {
    ns.push_back({N("ns" + std::to_string(s) + ".dns.nl"),
                  {Ip("194.0.28." + std::to_string(s)),
                   Ip("2001:678:2c::" + std::to_string(s))}});
  }
  return ns;
}

struct StackZones {
  std::shared_ptr<const zone::Zone> root;
  std::shared_ptr<const zone::Zone> nl;
};

StackZones BuildStackZones(Tracer& tr, double& build_s, double& sign_s) {
  const auto t0 = Clock::now();
  auto [root, nl] = tr.Run("zone.build", -1, [] {
    zone::ZoneBuildConfig root_config;
    root_config.apex = dns::Name{};
    root_config.negative_ttl = 86400;
    for (std::size_t letter = 0; letter < std::size(kRootV4); ++letter) {
      root_config.nameservers.push_back(
          {N(std::string(1, static_cast<char>('a' + letter)) +
             ".root-servers.example"),
           {Ip(kRootV4[letter]), Ip(kRootV6[letter])}});
    }
    zone::Zone root_zone = zone::MakeZoneSkeleton(root_config);
    zone::AddDelegation(root_zone, N("nl"), NlNameservers(), /*with_ds=*/true,
                        /*ttl=*/172800);
    zone::ZoneBuildConfig nl_config;
    nl_config.apex = N("nl");
    nl_config.nameservers = NlNameservers();
    zone::Zone nl_zone = zone::MakeZoneSkeleton(nl_config);
    zone::PopulateDelegations(nl_zone, kNlDelegations, "dom", 0.55,
                              net::Ipv4Address(100, 70, 0, 0));
    return std::pair{std::move(root_zone), std::move(nl_zone)};
  });
  const auto t1 = Clock::now();
  tr.Run("zone.sign", -1, [&] {
    zone::SignZone(root);
    zone::SignZone(nl);
  });
  const auto t2 = Clock::now();
  build_s = std::chrono::duration<double>(t1 - t0).count();
  sign_s = std::chrono::duration<double>(t2 - t1).count();
  return {std::make_shared<const zone::Zone>(std::move(root)),
          std::make_shared<const zone::Zone>(std::move(nl))};
}

/// Times every HandlePacket of the wrapped handler (traced iterations).
class TimedHandler final : public sim::PacketHandler {
 public:
  explicit TimedHandler(sim::PacketHandler& inner) : inner_(inner) {}
  void HandlePacket(const sim::PacketContext& ctx, const dns::WireBuffer& query,
                    dns::WireBuffer& response) override {
    const std::int64_t start = NowNs();
    inner_.HandlePacket(ctx, query, response);
    busy_ns_ += NowNs() - start;
    ++packets_;
  }
  using sim::PacketHandler::HandlePacket;
  [[nodiscard]] std::int64_t busy_ns() const { return busy_ns_; }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }

 private:
  sim::PacketHandler& inner_;
  std::int64_t busy_ns_ = 0;
  std::uint64_t packets_ = 0;
};

/// One iteration's servers, network and resolvers, wired from the shared
/// zones. Not movable: the network keeps references to the latency model
/// and the handlers.
class Stack {
 public:
  Stack(const StackZones& zones, std::uint64_t seed, bool timed) {
    const sim::SiteId ams = latency_.AddSite({"AMS", 0, 0, 1.0, 0.0});
    const sim::SiteId fra = latency_.AddSite({"FRA", 4, 3, 1.0, 0.0});
    const sim::SiteId iad = latency_.AddSite({"IAD", -42, 8, 1.0, 0.0});
    server::AuthServerConfig root_config;
    root_config.server_id = 100;
    root_config.name = "root";
    root_config.capture_enabled = false;
    root_ = std::make_unique<server::AuthServer>(root_config);
    root_->Serve(zones.root);
    server::AuthServerConfig nl_config;
    nl_config.server_id = 0;
    nl_config.name = "nl";
    nl_config.capture_enabled = false;
    nl_ = std::make_unique<server::AuthServer>(nl_config);
    nl_->Serve(zones.nl);
    leaf_ = std::make_unique<server::LeafAuthService>(server::LeafAuthConfig{});
    sim::PacketHandler* root_handler = root_.get();
    sim::PacketHandler* nl_handler = nl_.get();
    sim::PacketHandler* leaf_handler = leaf_.get();
    if (timed) {
      root_timed_ = std::make_unique<TimedHandler>(*root_);
      nl_timed_ = std::make_unique<TimedHandler>(*nl_);
      leaf_timed_ = std::make_unique<TimedHandler>(*leaf_);
      root_handler = root_timed_.get();
      nl_handler = nl_timed_.get();
      leaf_handler = leaf_timed_.get();
    }
    network_ = std::make_unique<sim::Network>(latency_);
    for (std::size_t letter = 0; letter < std::size(kRootV4); ++letter) {
      for (sim::SiteId site : {ams, iad}) {
        network_->RegisterServer(Ip(kRootV4[letter]), site, *root_handler);
        network_->RegisterServer(Ip(kRootV6[letter]), site, *root_handler);
      }
    }
    for (const zone::NameserverSpec& ns : NlNameservers()) {
      for (const net::IpAddress& address : ns.addresses) {
        for (sim::SiteId site : {ams, fra}) {
          network_->RegisterServer(address, site, *nl_handler);
        }
      }
    }
    network_->SetDefaultRoute(iad, *leaf_handler);

    std::vector<net::IpAddress> hints_v4;
    std::vector<net::IpAddress> hints_v6;
    for (std::size_t letter = 0; letter < std::size(kRootV4); ++letter) {
      hints_v4.push_back(Ip(kRootV4[letter]));
      hints_v6.push_back(Ip(kRootV6[letter]));
    }
    resolver::ResolverConfig modern;  // 2020-style
    modern.hosts = {{Ip("10.0.0.1"), Ip("fd00::1"), fra}};
    modern.qname_minimization = true;
    modern.validate_dnssec = true;
    modern.edns_udp_size = 1232;
    modern.seed = seed ^ 0x2020;
    resolver::ResolverConfig legacy;  // 2018-style
    legacy.hosts = {{Ip("10.0.0.2"), Ip("fd00::2"), fra}};
    legacy.seed = seed ^ 0x2018;
    resolvers_.push_back(std::make_unique<resolver::RecursiveResolver>(
        *network_, modern, hints_v4, hints_v6));
    resolvers_.push_back(std::make_unique<resolver::RecursiveResolver>(
        *network_, legacy, hints_v4, hints_v6));
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  resolver::RecursiveResolver& resolver(std::size_t i) { return *resolvers_[i]; }
  [[nodiscard]] std::size_t resolver_count() const { return resolvers_.size(); }
  [[nodiscard]] const TimedHandler* auth_timed(int i) const {
    return i == 0 ? root_timed_.get() : nl_timed_.get();
  }
  [[nodiscard]] const TimedHandler* leaf_timed() const {
    return leaf_timed_.get();
  }

 private:
  sim::LatencyModel latency_;
  std::unique_ptr<server::AuthServer> root_;
  std::unique_ptr<server::AuthServer> nl_;
  std::unique_ptr<server::LeafAuthService> leaf_;
  std::unique_ptr<TimedHandler> root_timed_;
  std::unique_ptr<TimedHandler> nl_timed_;
  std::unique_ptr<TimedHandler> leaf_timed_;
  std::unique_ptr<sim::Network> network_;
  std::vector<std::unique_ptr<resolver::RecursiveResolver>> resolvers_;
};

/// Per-resolver outcome counts of one iteration (the rendered report).
struct ResolverTally {
  std::uint64_t resolutions = 0;
  std::uint64_t rcodes[4] = {0, 0, 0, 0};  // NOERROR, SERVFAIL, NXDOMAIN, other
  std::uint64_t from_cache = 0;
  std::uint64_t upstream = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failovers = 0;
  std::uint64_t answers = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
};

std::uint64_t Fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

WorkloadRun RunResolverStack(const Options& opt) {
  WorkloadRun run("resolver_stack", opt);
  const std::uint64_t n = opt.quick ? kQuickResolutions : kResolutions;

  cloud::WorkloadSpec spec;
  spec.suffixes = {{N("nl"), kNlDelegations, 1.0, "dom"}};
  const sim::TimeUs week_start = sim::TimeFromCivil({2020, 4, 5});
  const sim::TimeUs week = 7 * sim::kMicrosPerDay;

  // Per-Resolve() wall times of one untraced iteration; allocated once so
  // that resident memory does not grow with the iteration count.
  std::vector<std::uint32_t> latency_ns(n);
  std::vector<std::uint64_t> first_outcomes;
  std::vector<std::uint64_t> outcomes(n);
  run.Iterate(5, [&](bool traced) {
    Tracer& tr = run.tracer();
    // Set-up, before the timed region: every iteration builds and signs
    // its own zones, so a run holds several setup_s samples.
    tr.set_enabled(traced);
    double build_s = 0;
    double sign_s = 0;
    const StackZones zones = BuildStackZones(tr, build_s, sign_s);
    tr.set_enabled(false);

    const std::size_t mark = run.span_mark();
    std::vector<ResolverTally> tallies;
    std::string report;
    std::int64_t wire_ns = 0;
    std::int64_t next_ns = 0;
    std::int64_t resolve_ns = 0;
    std::uint64_t auth_packets = 0;
    std::int64_t auth_ns = 0;
    std::uint64_t leaf_packets = 0;
    std::int64_t leaf_ns = 0;
    const Measured m = run.Measure(traced, [&] {
      const std::int64_t wire_start = NowNs();
      std::unique_ptr<Stack> stack = tr.Run("bench.wire", -1, [&] {
        return std::make_unique<Stack>(zones, opt.seed, traced);
      });
      wire_ns = NowNs() - wire_start;
      tallies.assign(stack->resolver_count(), ResolverTally{});
      cloud::WorkloadGenerator generator(spec, opt.seed);
      const std::int64_t loop_start = NowNs();
      for (std::uint64_t i = 0; i < n; ++i) {
        const sim::TimeUs now = week_start + week * i / n;
        const std::int64_t t0 = traced ? NowNs() : 0;
        const cloud::ClientQuery query = generator.Next();
        const std::size_t which = i % stack->resolver_count();
        const std::int64_t t1 = NowNs();
        const resolver::RecursiveResolver::Result result =
            stack->resolver(which).Resolve(query.qname, query.qtype, now);
        const std::int64_t t2 = NowNs();
        if (traced) {
          next_ns += t1 - t0;
          resolve_ns += t2 - t1;
        } else {
          latency_ns[i] = static_cast<std::uint32_t>(
              std::min<std::int64_t>(t2 - t1, 0xffffffffll));
        }
        ResolverTally& tally = tallies[which];
        ++tally.resolutions;
        const int rcode_slot = result.rcode == dns::Rcode::kNoError    ? 0
                               : result.rcode == dns::Rcode::kServFail ? 1
                               : result.rcode == dns::Rcode::kNxDomain ? 2
                                                                       : 3;
        ++tally.rcodes[rcode_slot];
        tally.from_cache += result.from_cache ? 1 : 0;
        tally.upstream += static_cast<std::uint64_t>(result.upstream_queries);
        tally.retransmits += static_cast<std::uint64_t>(result.retransmits);
        tally.timeouts += static_cast<std::uint64_t>(result.timeouts);
        tally.failovers += static_cast<std::uint64_t>(result.failovers);
        tally.answers += result.records.size();
        std::uint64_t outcome = Fnv(0, static_cast<std::uint64_t>(result.rcode));
        outcome = Fnv(outcome, result.records.size());
        outcome = Fnv(outcome, static_cast<std::uint64_t>(result.upstream_queries));
        outcome = Fnv(outcome, result.from_cache ? 1 : 0);
        outcomes[i] = outcome;
        tally.digest = Fnv(tally.digest, outcome);
      }
      const std::int64_t loop_end = NowNs();
      if (traced) {
        for (int a = 0; a < 2; ++a) {
          auth_packets += stack->auth_timed(a)->packets();
          auth_ns += stack->auth_timed(a)->busy_ns();
        }
        leaf_packets = stack->leaf_timed()->packets();
        leaf_ns = stack->leaf_timed()->busy_ns();
        // The hot loop's calls as aggregate spans under the iteration root.
        const int root = static_cast<int>(mark);
        tr.AddAggregate("cloud.workload_next", root, n, next_ns, loop_start,
                        loop_end);
        const int resolve = tr.AddAggregate("resolver.resolve", root, n,
                                            resolve_ns, loop_start, loop_end);
        tr.AddAggregate("server.auth", resolve, auth_packets, auth_ns,
                        loop_start, loop_end);
        tr.AddAggregate("server.leaf", resolve, leaf_packets, leaf_ns,
                        loop_start, loop_end);
      }
      report = tr.Run("analysis.render", -1, [&] {
        analysis::TextTable table({"resolver", "resolutions", "NOERROR",
                                   "SERVFAIL", "NXDOMAIN", "other", "cached",
                                   "upstream", "retransmits", "timeouts",
                                   "failovers", "answers", "digest"});
        for (std::size_t r = 0; r < tallies.size(); ++r) {
          const ResolverTally& t = tallies[r];
          char digest[20];
          std::snprintf(digest, sizeof digest, "%016llx",
                        static_cast<unsigned long long>(t.digest));
          table.AddRow({r == 0 ? "qmin+validate" : "plain",
                        analysis::Count(t.resolutions),
                        analysis::Count(t.rcodes[0]),
                        analysis::Count(t.rcodes[1]),
                        analysis::Count(t.rcodes[2]),
                        analysis::Count(t.rcodes[3]),
                        analysis::Count(t.from_cache),
                        analysis::Count(t.upstream),
                        analysis::Count(t.retransmits),
                        analysis::Count(t.timeouts),
                        analysis::Count(t.failovers),
                        analysis::Count(t.answers), digest});
        }
        return table.Render();
      });
      tr.Run("bench.unwire", -1, [&] { stack.reset(); });
    });
    // Checks: no SERVFAIL, and every resolution repeats iteration 0's
    // outcome.
    const bool report_ok = run.CheckReport(report);
    std::uint64_t servfail = 0;
    for (const ResolverTally& t : tallies) servfail += t.rcodes[1];
    std::uint64_t diverged = 0;
    if (first_outcomes.empty()) {
      first_outcomes = outcomes;
    } else {
      for (std::uint64_t i = 0; i < n; ++i) {
        diverged += outcomes[i] != first_outcomes[i] ? 1 : 0;
      }
    }
    const std::uint64_t failed =
        report_ok ? std::min<std::uint64_t>(n, servfail + diverged) : n;
    run.Ops(n, failed);
    if (servfail > 0) {
      run.Problem(std::to_string(servfail) + " resolutions ended in SERVFAIL");
    }
    if (diverged > 0) {
      run.Problem(std::to_string(diverged) +
                  " resolutions differ from iteration 0");
    }
    if (!report_ok) run.Problem("report differs");
    if (!traced) {
      run.AddSetup(build_s + sign_s + static_cast<double>(wire_ns) * 1e-9);
      run.AddEndToEnd(m, static_cast<double>(n));
      auto percentile_us = [&latency_ns](double q) {
        const auto k = static_cast<std::size_t>(
            q * static_cast<double>(latency_ns.size() - 1));
        std::nth_element(latency_ns.begin(),
                         latency_ns.begin() + static_cast<std::ptrdiff_t>(k),
                         latency_ns.end());
        return static_cast<double>(latency_ns[k]) * 1e-3;
      };
      const double p50 = percentile_us(0.50);
      const double p99 = percentile_us(0.99);
      run.metrics().Add("resolve_p50_us", "us", p50);
      run.metrics().Add("resolve_p99_us", "us", p99);
      if (opt.trace) {
        run.AddLayer("resolver.resolve_p50_us", p50);
        run.AddLayer("resolver.resolve_p99_us", p99);
      }
      return;
    }
    run.AddLayer("zone.build_s", build_s);
    run.AddLayer("zone.sign_s", sign_s);
    std::uint64_t upstream = 0;
    std::uint64_t cached = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failovers = 0;
    for (const ResolverTally& t : tallies) {
      upstream += t.upstream;
      cached += t.from_cache;
      retransmits += t.retransmits;
      timeouts += t.timeouts;
      failovers += t.failovers;
    }
    const double clients = static_cast<double>(n);
    const std::map<std::string, double> self = SelfSeconds(tr.spans(), mark);
    auto self_of = [&self](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second;
    };
    run.AddLayer("cloud.client_queries", clients);
    run.AddLayer("cloud.workload_next_ns",
                 Ratio(static_cast<double>(next_ns), clients));
    run.AddLayer("resolver.self_s", self_of("resolver.resolve"));
    run.AddLayer("resolver.upstream_per_client",
                 Ratio(static_cast<double>(upstream), clients));
    run.AddLayer("resolver.cache_answer_share",
                 Ratio(static_cast<double>(cached), clients));
    run.AddLayer("resolver.retransmits_per_client",
                 Ratio(static_cast<double>(retransmits), clients));
    run.AddLayer("resolver.timeouts_per_client",
                 Ratio(static_cast<double>(timeouts), clients));
    run.AddLayer("resolver.failovers_per_client",
                 Ratio(static_cast<double>(failovers), clients));
    run.AddLayer("server.auth_s", static_cast<double>(auth_ns) * 1e-9);
    run.AddLayer("server.auth_ns_per_packet",
                 Ratio(static_cast<double>(auth_ns),
                       static_cast<double>(auth_packets)));
    run.AddLayer("server.leaf_s", static_cast<double>(leaf_ns) * 1e-9);
    run.AddLayer("server.leaf_packets_per_client",
                 Ratio(static_cast<double>(leaf_packets), clients));
    run.AddLayer("analysis.render_s", self_of("analysis.render"));
  });
  return run;
}

// ---------------------------------------------------------------------------
// Entry point

/// --workload all: each workload in its own process, one after another.
int RunAll(const char* self, const Options& opt) {
  std::error_code ec;
  fs::create_directories(opt.work_dir, ec);
  // Parts sit beside --out, so the children's traces land there too.
  const fs::path part_dir = opt.out.empty()
                                ? fs::path(opt.work_dir)
                                : fs::path(opt.out).parent_path();
  std::vector<std::string> parts;
  int status_all = 0;
  for (const char* workload : kWorkloads) {
    const std::string part =
        (part_dir / (std::string(workload) + "." + std::to_string(getpid()) +
                     ".json"))
            .string();
    std::vector<std::string> args = {self,
                                     "--workload",
                                     workload,
                                     "--seed",
                                     std::to_string(opt.seed),
                                     "--threads",
                                     std::to_string(opt.threads),
                                     "--seconds",
                                     JsonNumber(opt.seconds),
                                     "--work-dir",
                                     opt.work_dir,
                                     "--out",
                                     part};
    if (opt.trace) args.push_back("--trace");
    if (opt.quick) args.push_back("--quick");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      std::fprintf(stderr, "bench_e2e: cannot start %s\n", workload);
      return 1;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "bench_e2e: workload %s failed\n", workload);
      status_all = 1;
    }
    parts.push_back(part);
  }
  std::string merged = "{\"workloads\": [\n";
  bool first = true;
  for (const std::string& part : parts) {
    std::vector<std::uint8_t> bytes;
    if (!base::io::ReadFileBytes(part, bytes).ok()) continue;
    const std::string text(bytes.begin(), bytes.end());
    const std::size_t open = text.find("[\n");
    const std::size_t close = text.rfind("\n]");
    if (open != std::string::npos && close != std::string::npos &&
        close > open + 2) {
      merged += (first ? "" : ",\n") + text.substr(open + 2, close - open - 2);
      first = false;
    }
    fs::remove(part, ec);
  }
  merged += "\n]}\n";
  if (!opt.out.empty()) {
    if (std::FILE* f = std::fopen(opt.out.c_str(), "w")) {
      std::fputs(merged.c_str(), f);
      std::fclose(f);
    }
  }
  return status_all;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, opt)) {
    PrintUsage();
    return 2;
  }
  // LoadOrRun would silently rescale budgets or share a cache dir.
  for (const char* var : {"CLOUDDNS_QUERIES", "CLOUDDNS_CACHE_DIR"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "bench_e2e: refusing to run with %s set; the benchmark "
                   "owns its inputs and cache\n",
                   var);
      return 2;
    }
  }
  if (opt.threads == 0) opt.threads = std::min<std::size_t>(OnlineCpus(), 4);
  // One thread count for signing, simulation and scan alike.
  setenv("CLOUDDNS_THREADS", std::to_string(opt.threads).c_str(), 1);
  if (!opt.out.empty() && fs::path(opt.out).has_parent_path()) {
    std::error_code ec;
    fs::create_directories(fs::path(opt.out).parent_path(), ec);
  }

  if (opt.workload == "all") return RunAll(argv[0], opt);
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return opt.workload == w; }) ==
      std::end(kWorkloads)) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 opt.workload.c_str());
    PrintUsage();
    return 2;
  }

  const OwnedDir work(opt.work_dir + "/" + opt.workload + "." +
                        std::to_string(getpid()));
  WorkloadRun run = opt.workload == "cold_table3"
                        ? RunColdTable3(opt, work.path())
                    : opt.workload == "warm_suite"
                        ? RunWarmSuite(opt, work.path())
                    : opt.workload == "fault_event"
                        ? RunFaultEvent(opt, work.path())
                        : RunResolverStack(opt);
  run.FinishLayers();
  run.Print();
  if (!opt.out.empty()) run.WriteJson(opt.out);
  if (opt.trace) {
    // Beside --out, or in the working directory without one.
    run.WriteTrace((fs::path(opt.out).parent_path() /
                    ("trace_" + opt.workload + ".json"))
                       .string());
  }
  return run.ok() ? 0 : 1;
}
