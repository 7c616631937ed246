// Shared worker-thread infrastructure (DESIGN.md §13). EffectiveThreads()
// resolves a configured worker count against the CLOUDDNS_THREADS
// environment override and the hardware, and ThreadPool::Shared() owns the
// one process-wide helper set that both the scenario engine
// (cloud::Scenario::Run) and the analytics scanner
// (entrada::AnalysisPlan::Execute) draw from — so a process running many
// scenarios or scans pays thread creation once instead of once per run,
// and the two layers can never oversubscribe each other with private
// pools.
//
// Determinism: the pool only schedules; every task writes state owned by
// its task index, and results are reduced in task order by the caller.
// Which helper runs which task is deliberately unobservable in any output.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "base/env.h"

namespace clouddns::base {

/// Worker count for a parallel stage: an explicit `configured` value wins;
/// otherwise the CLOUDDNS_THREADS environment variable (re-read on every
/// call — the thread-invariance tests change it between runs; a value that
/// is not a positive integer is ignored); otherwise the hardware
/// concurrency. Never returns 0.
inline std::size_t EffectiveThreads(std::size_t configured) {
  if (configured > 0) return configured;
  if (auto value = PositiveEnvInteger("CLOUDDNS_THREADS")) {
    return static_cast<std::size_t>(*value);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// A lazily started, process-wide helper pool. ParallelFor(tasks, cap, fn)
/// runs fn(0) .. fn(tasks-1) exactly once each, with the calling thread
/// participating and at most cap-1 pool helpers assisting; tasks are drawn
/// dynamically from a shared counter, so uneven task costs balance without
/// affecting which state each task touches. The caller returns only after
/// every task has finished (helper writes are ordered before the return by
/// the pool mutex, so the caller may read task results immediately).
///
/// Nested ParallelFor from inside a task runs inline on that worker — an
/// inner stage can never deadlock waiting for helpers the outer stage
/// already occupies.
class ThreadPool {
 public:
  static ThreadPool& Shared() {
    static ThreadPool pool;
    return pool;
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Helper threads the pool will own once started (callers excluded).
  [[nodiscard]] std::size_t helper_count() const { return helper_target_; }

  /// Execution lanes that can make simultaneous progress: the physical
  /// concurrency, clamped to caller + helpers. On a single-core host this
  /// is 1 even though one helper exists (the helper is there for TSan
  /// coverage, not speed) — per-worker state fan-out should not exceed it.
  [[nodiscard]] std::size_t lane_count() const {
    unsigned hw = std::thread::hardware_concurrency();
    std::size_t lanes = hw > 0 ? hw : 1;
    return lanes < helper_target_ + 1 ? lanes : helper_target_ + 1;
  }

  void ParallelFor(std::size_t tasks, std::size_t max_workers,
                   const std::function<void(std::size_t)>& fn) {
    if (tasks == 0) return;
    if (tasks == 1 || max_workers <= 1 || in_pool_task_ ||
        helper_target_ == 0) {
      for (std::size_t i = 0; i < tasks; ++i) fn(i);
      return;
    }
    EnsureStarted();
    // One job at a time; concurrent top-level callers queue here.
    std::lock_guard<std::mutex> serialize(run_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      job_tasks_ = tasks;
      next_task_.store(0, std::memory_order_relaxed);
      claim_cap_ = max_workers - 1;
      if (claim_cap_ > helpers_.size()) claim_cap_ = helpers_.size();
      if (claim_cap_ > tasks - 1) claim_cap_ = tasks - 1;
      claimed_ = 0;
      active_ = 0;
      ++epoch_;
    }
    cv_.notify_all();
    DrainTasks(tasks, fn);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return active_ == 0; });
    // Helpers that wake late see no job and go back to sleep; `fn` must
    // not be touched after ParallelFor returns.
    job_ = nullptr;
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& helper : helpers_) helper.join();
  }

 private:
  ThreadPool() {
    unsigned hw = std::thread::hardware_concurrency();
    // At least one helper even on single-core hosts, so the cross-thread
    // paths stay exercised (and TSan-checked) everywhere.
    helper_target_ = (hw > 2 ? hw : 2) - 1;
  }

  void EnsureStarted() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!helpers_.empty() || stop_) return;
    helpers_.reserve(helper_target_);
    for (std::size_t i = 0; i < helper_target_; ++i) {
      helpers_.emplace_back([this] { HelperLoop(); });
    }
  }

  /// Pulls task indices until the shared counter runs dry. Both the caller
  /// and every claiming helper execute this same loop.
  void DrainTasks(std::size_t tasks,
                  const std::function<void(std::size_t)>& fn) {
    in_pool_task_ = true;
    for (;;) {
      std::size_t i = next_task_.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks) break;
      fn(i);
    }
    in_pool_task_ = false;
  }

  void HelperLoop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t tasks = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock,
                 [&] { return stop_ || (job_ != nullptr && epoch_ != seen); });
        if (stop_) return;
        seen = epoch_;
        if (claimed_ >= claim_cap_) continue;
        if (next_task_.load(std::memory_order_relaxed) >= job_tasks_) continue;
        ++claimed_;
        ++active_;
        fn = job_;
        tasks = job_tasks_;
      }
      DrainTasks(tasks, *fn);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--active_ == 0) done_cv_.notify_all();
      }
    }
  }

  // The pool intentionally uses std::mutex/std::condition_variable rather
  // than base::Mutex: helpers block on a condition variable, which the
  // annotated wrapper does not expose.
  std::mutex run_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  // lint:allow(raw-thread): this pool IS the sanctioned thread owner — Scenario::Run and AnalysisPlan::Execute route their parallelism through it
  std::vector<std::thread> helpers_;
  std::size_t helper_target_ = 0;

  const std::function<void(std::size_t)>* job_ = nullptr;  // guarded by mu_
  std::size_t job_tasks_ = 0;                              // guarded by mu_
  std::atomic<std::size_t> next_task_{0};
  std::size_t claim_cap_ = 0;  // guarded by mu_
  std::size_t claimed_ = 0;    // guarded by mu_
  std::size_t active_ = 0;     // guarded by mu_
  std::uint64_t epoch_ = 0;    // guarded by mu_
  bool stop_ = false;          // guarded by mu_

  static thread_local bool in_pool_task_;
};

inline thread_local bool ThreadPool::in_pool_task_ = false;

}  // namespace clouddns::base
