// Golden pins for the hagerup (heap-free analytic) backend: fixed-seed
// chunk sequences and makespans must stay bit-identical across engine
// and workload-layer refactors.  The constants were recorded from the
// binary-heap event core before the calendar-queue overhaul; both
// backends draw task times through the same workload layer, so these
// pins also freeze the RNG stream and the prefix accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "hagerup/simulator.hpp"
#include "workload/random_source.hpp"
#include "workload/task_times.hpp"

namespace {

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

std::uint64_t chunk_log_hash(const hagerup::RunResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const dls::ChunkRecord& e : r.chunk_log) {
    h = fnv1a(h, e.pe);
    h = fnv1a(h, e.first);
    h = fnv1a(h, e.size);
    h = fnv1a(h, bits(e.issued_at));
    h = fnv1a(h, bits(e.work_seconds));
  }
  return h;
}

hagerup::Config pinned_config(dls::Kind kind) {
  hagerup::Config cfg;
  cfg.technique = kind;
  cfg.pes = 16;
  cfg.tasks = 4096;
  cfg.workload = workload::exponential(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 1.0;
  cfg.params.h = 0.2;
  cfg.seed = 4242;
  cfg.record_chunk_log = true;
  return cfg;
}

struct Golden {
  double makespan;
  std::size_t chunks;
  double total_work;
  std::uint64_t log_hash;
};

void expect_golden(const hagerup::Config& cfg, const Golden& golden) {
  const hagerup::RunResult fresh = hagerup::run(cfg);
  EXPECT_EQ(bits(fresh.makespan), bits(golden.makespan));
  EXPECT_EQ(fresh.chunk_count, golden.chunks);
  EXPECT_EQ(bits(fresh.total_work), bits(golden.total_work));
  EXPECT_EQ(chunk_log_hash(fresh), golden.log_hash);

  // Task times drawn outside the simulator (the batch path) must not
  // perturb a single bit.
  const auto source = workload::make_source(cfg.seed, cfg.use_rand48);
  workload::TaskDraw draw;
  cfg.workload->draw(draw, cfg.tasks, *source, hagerup::kDrawParts);
  const hagerup::RunResult drawn = hagerup::run(cfg, draw);
  EXPECT_EQ(bits(drawn.makespan), bits(golden.makespan));
  EXPECT_EQ(drawn.chunk_count, golden.chunks);
  EXPECT_EQ(chunk_log_hash(drawn), golden.log_hash);
}

TEST(HagerupGolden, SelfSchedulingExponential) {
  expect_golden(pinned_config(dls::Kind::kSS),
                Golden{0x1.319bc6053f3f6p+8, 4096, 0x1.f7e3247d6d8e4p+11,
                       0xd7fe86f630fba515ull});
}

TEST(HagerupGolden, BoldExponential) {
  expect_golden(pinned_config(dls::Kind::kBOLD),
                Golden{0x1.023b4f08a97d9p+8, 305, 0x1.f7e3247d6d8e4p+11,
                       0x26c3a431e3de477aull});
}

}  // namespace
