// Tests for the native threaded DLS loop executor.  Correctness
// assertions are exact; performance-flavoured assertions use generous
// margins because they run on real, noisy threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/dls_loop.hpp"

namespace {

using runtime::DlsLoopExecutor;
using runtime::LoopStats;

class EveryTechnique : public ::testing::TestWithParam<dls::Kind> {};

TEST_P(EveryTechnique, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 4096;
  std::vector<std::atomic<int>> visits(n);
  const LoopStats stats = runtime::parallel_for_dls(
      GetParam(), n, [&](std::size_t i) { visits[i].fetch_add(1, std::memory_order_relaxed); },
      /*threads=*/8);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i << " technique "
                                   << dls::to_string(GetParam());
  }
  std::size_t total = 0;
  for (std::size_t t : stats.tasks_per_thread) total += t;
  EXPECT_EQ(total, n);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EveryTechnique, ::testing::ValuesIn(dls::all_kinds()),
                         [](const ::testing::TestParamInfo<dls::Kind>& param_info) {
                           std::string name = dls::to_string(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(DlsLoop, ChunkBodyReceivesDisjointRanges) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  DlsLoopExecutor::Options options;
  options.technique = dls::Kind::kTSS;
  options.threads = 4;
  DlsLoopExecutor executor(options);
  const LoopStats stats = executor.run(n, [&](std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1);
  EXPECT_GT(stats.chunks, 1u);
  EXPECT_EQ(stats.tasks_per_thread.size(), 4u);
}

TEST(DlsLoop, SingleThreadStillWorks) {
  std::atomic<std::size_t> sum{0};
  const LoopStats stats = runtime::parallel_for_dls(
      dls::Kind::kGSS, 1000, [&](std::size_t i) { sum.fetch_add(i); }, 1);
  EXPECT_EQ(sum.load(), 1000u * 999u / 2u);
  EXPECT_EQ(stats.tasks_per_thread.size(), 1u);
  EXPECT_EQ(stats.tasks_per_thread[0], 1000u);
}

TEST(DlsLoop, StatsAreConsistent) {
  DlsLoopExecutor::Options options;
  options.technique = dls::Kind::kFAC2;
  options.threads = 6;
  DlsLoopExecutor executor(options);
  const LoopStats stats = executor.run_indexed(5000, [](std::size_t) {});
  std::size_t chunks = 0;
  for (std::size_t c : stats.chunks_per_thread) chunks += c;
  EXPECT_EQ(chunks, stats.chunks);
  EXPECT_GT(stats.wall_seconds, 0.0);
  for (double busy : stats.busy_seconds_per_thread) {
    EXPECT_LE(busy, stats.wall_seconds * 1.5);  // sanity, generous margin
  }
}

TEST(DlsLoop, ExceptionPropagatesAndAbortsDispatch) {
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      runtime::parallel_for_dls(
          dls::Kind::kSS, 100000,
          [&](std::size_t i) {
            if (i == 5) throw std::runtime_error("body failure");
            executed.fetch_add(1, std::memory_order_relaxed);
          },
          4),
      std::runtime_error);
  // Dispatch stopped early: nowhere near the full loop ran.
  EXPECT_LT(executed.load(), 100000u);
}

TEST(DlsLoop, RejectsInvalidArguments) {
  DlsLoopExecutor::Options options;
  DlsLoopExecutor executor(options);
  EXPECT_THROW((void)executor.run_indexed(0, [](std::size_t) {}), std::invalid_argument);
  EXPECT_THROW((void)executor.run(10, nullptr), std::invalid_argument);
}

TEST(DlsLoop, ReuseAcrossTimestepsKeepsAdaptiveState) {
  // AWF across repeated loops: the second run must produce skewed
  // chunks immediately (weights learned in run 1).  We pin thread
  // speeds via the body: thread affinity is not controllable, so
  // instead verify the mechanics -- reuse works and totals stay exact.
  DlsLoopExecutor::Options options;
  options.technique = dls::Kind::kAWFB;
  options.threads = 4;
  DlsLoopExecutor executor(options);
  for (int step = 0; step < 3; ++step) {
    std::atomic<std::size_t> count{0};
    const LoopStats stats = executor.run_indexed(2048, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 2048u) << "step " << step;
    std::size_t total = 0;
    for (std::size_t t : stats.tasks_per_thread) total += t;
    EXPECT_EQ(total, 2048u) << "step " << step;
  }
}

TEST(DlsLoop, ChangingLoopSizeRebuildsTechnique) {
  DlsLoopExecutor::Options options;
  options.technique = dls::Kind::kTSS;
  options.threads = 2;
  DlsLoopExecutor executor(options);
  EXPECT_EQ(executor.run_indexed(100, [](std::size_t) {}).chunks,
            executor.run_indexed(100, [](std::size_t) {}).chunks);
  const LoopStats bigger = executor.run_indexed(10000, [](std::size_t) {});
  std::size_t total = 0;
  for (std::size_t t : bigger.tasks_per_thread) total += t;
  EXPECT_EQ(total, 10000u);
}

TEST(DlsLoop, DynamicTechniquesBalanceSkewedWork) {
  // A pathological loop: the last quarter of the iterations are 50x
  // more expensive.  STAT pins that block to the last threads; SS
  // balances it.  Assert the robust direction, not exact timing.
  const std::size_t n = 2000;
  auto busy_work = [&](std::size_t i) {
    const int reps = i >= 3 * n / 4 ? 50 : 1;
    volatile double x = 1.0;
    for (int r = 0; r < reps * 200; ++r) x = x * 1.0000001 + 1e-9;
  };
  const LoopStats stat = runtime::parallel_for_dls(dls::Kind::kStatic, n, busy_work, 4);
  const LoopStats ss = runtime::parallel_for_dls(dls::Kind::kSS, n, busy_work, 4);
  auto imbalance = [](const LoopStats& s) {
    double max_busy = 0.0, sum = 0.0;
    for (double b : s.busy_seconds_per_thread) {
      max_busy = std::max(max_busy, b);
      sum += b;
    }
    const double mean = sum / static_cast<double>(s.busy_seconds_per_thread.size());
    return mean > 0.0 ? max_busy / mean : 1.0;
  };
  EXPECT_GT(imbalance(stat), imbalance(ss));
}

TEST(DlsLoop, ExceptionMidChunkAbortsCleanlyAndRethrowsOnce) {
  // The first body exception must abort remaining dispatches, surface
  // exactly once, and leave the executor reusable.
  DlsLoopExecutor::Options options;
  options.technique = dls::Kind::kSS;
  options.threads = 4;
  DlsLoopExecutor executor(options);
  std::atomic<std::size_t> executed{0};
  std::size_t caught = 0;
  try {
    (void)executor.run(50000, [&](std::size_t begin, std::size_t) {
      if (begin == 17) throw std::runtime_error("chunk 17 exploded");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "chunk 17 exploded");
  } catch (...) {
    FAIL() << "wrong exception type propagated";
  }
  EXPECT_EQ(caught, 1u);
  EXPECT_LT(executed.load(), 50000u);

  // Concurrent failures in several threads still rethrow exactly one.
  caught = 0;
  try {
    (void)executor.run(50000, [](std::size_t, std::size_t) {
      throw std::runtime_error("every chunk fails");
    });
  } catch (const std::runtime_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1u);

  // The executor recovered: a clean follow-up loop runs to completion.
  std::atomic<std::size_t> count{0};
  const LoopStats stats = executor.run_indexed(1000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000u);
  std::size_t total = 0;
  for (std::size_t t : stats.tasks_per_thread) total += t;
  EXPECT_EQ(total, 1000u);
}

TEST(DlsLoop, AdaptiveStatePersistsAcrossRunsAndResetsWhenNChanges) {
  // loop_count() counts run() calls served by the current technique
  // instance: it must grow while adaptive (AWF/AF) state persists and
  // reset when a changed n rebuilds the technique.
  for (dls::Kind kind : {dls::Kind::kAWF, dls::Kind::kAWFB, dls::Kind::kAF}) {
    DlsLoopExecutor::Options options;
    options.technique = kind;
    options.threads = 4;
    DlsLoopExecutor executor(options);
    EXPECT_EQ(executor.loop_count(), 0u) << dls::to_string(kind);
    (void)executor.run_indexed(1024, [](std::size_t) {});
    EXPECT_EQ(executor.loop_count(), 1u) << dls::to_string(kind);
    (void)executor.run_indexed(1024, [](std::size_t) {});
    (void)executor.run_indexed(1024, [](std::size_t) {});
    EXPECT_EQ(executor.loop_count(), 3u) << dls::to_string(kind);  // state persisted
    (void)executor.run_indexed(2048, [](std::size_t) {});
    EXPECT_EQ(executor.loop_count(), 1u) << dls::to_string(kind);  // n changed: rebuilt
    (void)executor.run_indexed(2048, [](std::size_t) {});
    EXPECT_EQ(executor.loop_count(), 2u) << dls::to_string(kind);
  }
}

TEST(DlsLoop, FailedRunStillAdvancesTimestepState) {
  // A run that throws after dispatching chunks has still consumed a
  // timestep on the persistent technique; the next same-n run must not
  // see stale inconsistent counts (it reschedules all n afresh).
  DlsLoopExecutor::Options options;
  options.technique = dls::Kind::kAWFB;
  options.threads = 2;
  DlsLoopExecutor executor(options);
  EXPECT_THROW((void)executor.run(4096,
                                  [](std::size_t begin, std::size_t) {
                                    if (begin > 100) throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
  std::atomic<std::size_t> count{0};
  (void)executor.run_indexed(4096, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4096u);
}

TEST(DlsLoop, ChunkLogRecordsEveryDispatchExactlyOnce) {
  DlsLoopExecutor::Options options;
  options.technique = dls::Kind::kFAC2;
  options.threads = 4;
  options.record_chunk_log = true;
  DlsLoopExecutor executor(options);
  const std::size_t n = 5000;
  const LoopStats stats = executor.run_indexed(n, [](std::size_t) {});
  ASSERT_EQ(stats.chunk_log.size(), stats.chunks);
  std::vector<int> visits(n, 0);
  for (const dls::ChunkRecord& chunk : stats.chunk_log) {
    ASSERT_GE(chunk.size, 1u);
    ASSERT_LE(chunk.first + chunk.size, n);
    ASSERT_LT(chunk.pe, 4u);
    for (std::size_t i = chunk.first; i < chunk.first + chunk.size; ++i) ++visits[i];
  }
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i], 1) << "index " << i;
}

TEST(DlsLoop, ChunkLogIsOffByDefault) {
  const LoopStats stats =
      runtime::parallel_for_dls(dls::Kind::kGSS, 1000, [](std::size_t) {}, 2);
  EXPECT_TRUE(stats.chunk_log.empty());
}

TEST(DlsLoop, AdaptiveFeedbackFlowsThroughNativeTimers) {
  // AF needs per-chunk timing feedback; run a loop with measurable work
  // and verify AF terminates with exact coverage (the estimator path is
  // exercised end to end).
  std::atomic<std::size_t> count{0};
  const LoopStats stats = runtime::parallel_for_dls(
      dls::Kind::kAF, 4096,
      [&](std::size_t) {
        volatile double x = 1.0;
        for (int r = 0; r < 50; ++r) x = x * 1.0000001 + 1e-9;
        count.fetch_add(1, std::memory_order_relaxed);
      },
      8);
  EXPECT_EQ(count.load(), 4096u);
  EXPECT_GT(stats.chunks, 8u);
}

}  // namespace
