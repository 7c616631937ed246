// The shared worker-pool contract: EffectiveThreads resolution order,
// exactly-once task execution, nested-ParallelFor inlining, and stability
// under repeated jobs — the properties Scenario::Run and
// AnalysisPlan::Execute lean on for determinism.
#include "base/threads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

namespace clouddns::base {
namespace {

class ThreadsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("CLOUDDNS_THREADS");
    had_env_ = prev != nullptr;
    if (had_env_) saved_ = prev;
    unsetenv("CLOUDDNS_THREADS");
  }
  void TearDown() override {
    if (had_env_) {
      setenv("CLOUDDNS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("CLOUDDNS_THREADS");
    }
  }

 private:
  bool had_env_ = false;
  std::string saved_;
};

TEST_F(ThreadsEnvTest, ConfiguredValueWins) {
  setenv("CLOUDDNS_THREADS", "7", 1);
  EXPECT_EQ(EffectiveThreads(3), 3u);
}

TEST_F(ThreadsEnvTest, EnvOverridesHardware) {
  setenv("CLOUDDNS_THREADS", "5", 1);
  EXPECT_EQ(EffectiveThreads(0), 5u);
  // Re-read on every call: thread-invariance tests change it between runs.
  setenv("CLOUDDNS_THREADS", "2", 1);
  EXPECT_EQ(EffectiveThreads(0), 2u);
}

TEST_F(ThreadsEnvTest, MalformedEnvFallsThrough) {
  setenv("CLOUDDNS_THREADS", "banana", 1);
  EXPECT_GE(EffectiveThreads(0), 1u);
  setenv("CLOUDDNS_THREADS", "0", 1);
  EXPECT_GE(EffectiveThreads(0), 1u);
}

TEST_F(ThreadsEnvTest, StrictParseIgnoresMalformedValues) {
  const std::size_t fallback = EffectiveThreads(0);  // env unset
  // "-1" must not wrap to 2^64-1, nor "8x" read as 8; 2^64 overflows.
  for (const char* bad : {"-1", "8x", "", "18446744073709551616"}) {
    setenv("CLOUDDNS_THREADS", bad, 1);
    EXPECT_EQ(EffectiveThreads(0), fallback) << '"' << bad << '"';
  }
  setenv("CLOUDDNS_THREADS", "123", 1);
  EXPECT_EQ(EffectiveThreads(0), 123u);
}

TEST_F(ThreadsEnvTest, NeverReturnsZero) {
  EXPECT_GE(EffectiveThreads(0), 1u);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  ThreadPool::Shared().ParallelFor(kTasks, 8, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, SerialPathsStillCoverEveryTask) {
  for (std::size_t cap : {0u, 1u}) {
    std::vector<int> hits(64, 0);
    // cap<=1 runs inline on the caller — safe to write plain ints.
    ThreadPool::Shared().ParallelFor(hits.size(), cap,
                                     [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "cap " << cap << " task " << i;
    }
  }
}

TEST(ThreadPoolTest, ZeroTasksIsANoop) {
  bool ran = false;
  ThreadPool::Shared().ParallelFor(0, 8, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ThreadPool::Shared().ParallelFor(kOuter, 4, [&](std::size_t o) {
    // The inner call must not wait for pool helpers the outer job already
    // occupies — it runs inline on this worker.
    ThreadPool::Shared().ParallelFor(kInner, 8, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "cell " << i;
  }
}

TEST(ThreadPoolTest, CallerSeesTaskWritesAfterReturn) {
  // Helper-written results must be visible to the caller without extra
  // synchronization — Scenario::Run reads shard buffers right after
  // ParallelFor returns.
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> out(32, 0);
    ThreadPool::Shared().ParallelFor(out.size(), 8, [&](std::size_t i) {
      out[i] = i * 2654435761u + static_cast<std::uint64_t>(round);
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i * 2654435761u + static_cast<std::uint64_t>(round));
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  // The pool is spawned once per process; hammer it with many small jobs
  // to shake out epoch/wakeup bugs.
  std::atomic<std::uint64_t> total{0};
  for (int job = 0; job < 200; ++job) {
    ThreadPool::Shared().ParallelFor(7, 3, [&](std::size_t i) {
      total.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * (1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(ThreadPoolTest, HelperCountIsPositive) {
  // Even on single-core hosts the pool keeps one helper, so cross-thread
  // paths stay exercised under TSan everywhere.
  EXPECT_GE(ThreadPool::Shared().helper_count(), 1u);
}

}  // namespace
}  // namespace clouddns::base
