// Golden-value regression tests: fixed-seed simulations must keep
// producing bit-identical results (makespan, chunk counts, chunk logs,
// per-worker accounting) across refactors of the serve path.
//
// The constants were recorded from the prefix-sum serve-path
// implementation (chunk nominal seconds are prefix-sum differences; the
// earlier per-task-summation implementation agreed on every chunk
// decision and matched constant-workload runs bit-for-bit, with
// exponential-workload makespans within a few ulps).  If a change moves
// any of these values, it changed simulation semantics -- regenerate
// the constants only for a deliberate, documented semantic change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "mw/simulation.hpp"
#include "workload/random_source.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Hash of the chunk log's scheduling decisions (pe, first, size,
/// issue time).  work_seconds is checked elsewhere against the
/// prefix-sum reconstruction (test_resilience.cpp).
std::uint64_t chunk_log_hash(const mw::RunResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const dls::ChunkRecord& e : r.chunk_log) {
    h = fnv1a(h, e.pe);
    h = fnv1a(h, e.first);
    h = fnv1a(h, e.size);
    h = fnv1a(h, bits(e.issued_at));
  }
  return h;
}

std::uint64_t workers_hash(const mw::RunResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const mw::WorkerStats& w : r.workers) {
    h = fnv1a(h, bits(w.compute_time));
    h = fnv1a(h, w.tasks);
    h = fnv1a(h, w.chunks);
  }
  return h;
}

struct Golden {
  const char* name;
  double makespan;
  std::size_t chunks;
  double total_nominal_work;
  std::size_t tasks_reclaimed;
  std::uint64_t log_hash;
  std::uint64_t workers_hash;
};

void expect_golden(const mw::Config& cfg, const Golden& golden) {
  SCOPED_TRACE(golden.name);
  const mw::RunResult fresh = mw::run_simulation(cfg);

  // Exact golden values.
  EXPECT_EQ(bits(fresh.makespan), bits(golden.makespan));
  EXPECT_EQ(fresh.chunk_count, golden.chunks);
  EXPECT_EQ(bits(fresh.total_nominal_work), bits(golden.total_nominal_work));
  EXPECT_EQ(fresh.tasks_reclaimed, golden.tasks_reclaimed);
  EXPECT_EQ(chunk_log_hash(fresh), golden.log_hash);
  EXPECT_EQ(workers_hash(fresh), golden.workers_hash);

  // A reused context must not change anything: run twice through the
  // same RunContext (the second run hits the cached engine), each on a
  // draw made here from the config's own seed and generator.
  mw::RunContext context;
  const auto run_reusing_context = [&] {
    const auto rest = workload::make_source(cfg.seed, cfg.use_rand48);
    workload::TaskDraw step0;
    cfg.workload->draw(step0, cfg.tasks, *rest, mw::kDrawParts);
    return mw::run_simulation(cfg, context, step0, *rest);
  };
  (void)run_reusing_context();
  const mw::RunResult reused = run_reusing_context();
  EXPECT_EQ(bits(reused.makespan), bits(golden.makespan));
  EXPECT_EQ(reused.chunk_count, golden.chunks);
  EXPECT_EQ(chunk_log_hash(reused), golden.log_hash);
  EXPECT_EQ(workers_hash(reused), golden.workers_hash);
}

TEST(Golden, Fac2ExponentialWithChunkLog) {
  mw::Config cfg;
  cfg.technique = Kind::kFAC2;
  cfg.workers = 8;
  cfg.tasks = 2048;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.seed = 1234;
  cfg.record_chunk_log = true;
  expect_golden(cfg, Golden{"fac2_exp", 0x1.fe3b1f8f61b35p+7, 72, 0x1.fc56dbd646e33p+10, 0,
                            0x745c4de99ad4ed3full, 0xedc235d51321004bull});
}

TEST(Golden, BoldRand48) {
  mw::Config cfg;
  cfg.technique = Kind::kBOLD;
  cfg.workers = 64;
  cfg.tasks = 8192;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.seed = 777;
  cfg.use_rand48 = true;
  expect_golden(cfg, Golden{"bold_rand48", 0x1.0a33e56868c4bp+7, 926, 0x1.04d996e5d8ec7p+13, 0,
                            kFnvBasis, 0x2861a90face643edull});
}

TEST(Golden, GssWithWorkerFailure) {
  mw::Config cfg;
  cfg.technique = Kind::kGSS;
  cfg.workers = 4;
  cfg.tasks = 400;
  cfg.workload = workload::constant(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 0.0;
  cfg.params.h = 0.01;
  cfg.worker_failure_times = {30.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::infinity()};
  cfg.record_chunk_log = true;
  // Bit-identical with the pre-refactor serve path (constant workload:
  // prefix-sum differences are exact).
  expect_golden(cfg, Golden{"gss_failure", 0x1.0c0000000029ap+7, 21, 0x1.9p+8, 100,
                            0x579f40d1ef151fc4ull, 0x99cc98eaaffb7c3dull});
}

TEST(Golden, AwfbTimestepping) {
  mw::Config cfg;
  cfg.technique = Kind::kAWFB;
  cfg.workers = 4;
  cfg.tasks = 200;
  cfg.timesteps = 3;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.02;
  cfg.seed = 99;
  expect_golden(cfg, Golden{"awfb_steps", 0x1.31e258a6c31c2p+7, 72, 0x1.2b6d99c87004fp+9, 0,
                            kFnvBasis, 0x791333aff4e33b06ull});
}

TEST(Golden, TssSimulatedOverheadRealNetwork) {
  mw::Config cfg;
  cfg.technique = Kind::kTSS;
  cfg.workers = 4;
  cfg.tasks = 1000;
  cfg.workload = workload::constant(0.002);
  cfg.params.mu = 0.002;
  cfg.params.sigma = 0.0;
  cfg.params.h = 1e-4;
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.latency = 2e-6;
  cfg.bandwidth = 100e6;
  cfg.record_chunk_log = true;
  expect_golden(cfg, Golden{"tss_simovh", 0x1.026d932b6b691p-1, 15, 0x1.0000000000003p+1, 0,
                            0xa24d83018aec716bull, 0xd9bcc89e34826c04ull});
}

TEST(Golden, GssSimulatedOverheadRealNetwork) {
  // Pins the event-core hot path end to end: simulated overhead (the
  // master's serve suspension), a real star network (route-cost
  // lookups), and the fused compute+send path on every chunk.
  // Recorded from the binary-heap engine before the calendar-queue
  // overhaul; the overhaul must keep it bit-identical.
  mw::Config cfg;
  cfg.technique = Kind::kGSS;
  cfg.workers = 16;
  cfg.tasks = 4096;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.seed = 20170529;
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.latency = 2e-6;
  cfg.bandwidth = 1e8;
  cfg.record_chunk_log = true;
  expect_golden(cfg, Golden{"gss_net", 0x1.13df8aacdf8afp+8, 96, 0x1.031e4d50c4528p+12, 0,
                            0x99627792392a01d1ull, 0x3690211110f30ec4ull});
}

TEST(Golden, SelfSchedulingExponential) {
  mw::Config cfg;
  cfg.technique = Kind::kSS;
  cfg.workers = 16;
  cfg.tasks = 4096;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.5;
  cfg.seed = 31337;
  expect_golden(cfg, Golden{"ss_exp", 0x1.00fa824714fap+8, 4096, 0x1.000f7c459c1e1p+12, 0,
                            kFnvBasis, 0xa0f8c3386bfa0d80ull});
}

}  // namespace
