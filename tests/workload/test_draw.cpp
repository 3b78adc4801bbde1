// workload::TaskTimeGenerator::draw: one pass that fills a step's task
// times, their left-to-right running sums and their total.  Every part
// must be bit-identical to drawing the times one sample() call at a
// time and summing them afterwards, for every generator kind on both
// sources, and the source must end where that per-sample draw leaves it
// (mw's later timesteps keep drawing from it).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/random_source.hpp"
#include "workload/task_times.hpp"

namespace {

using workload::DrawParts;
using workload::TaskDraw;

constexpr DrawParts kAll = DrawParts::kTimes | DrawParts::kPrefix | DrawParts::kTotal;

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Every generator kind: the from_spec forms plus trace, which has none.
std::vector<std::unique_ptr<workload::TaskTimeGenerator>> all_generators() {
  std::vector<std::unique_ptr<workload::TaskTimeGenerator>> out;
  for (const char* spec : {"constant:0.5", "uniform:0.5,1.5", "exponential:1", "normal:1,0.4",
                           "gamma:2,0.5", "gamma:0.5,2", "lognormal:1,0.5", "weibull:1.5,1",
                           "bimodal:0.1,1,0.25", "ramp:0.1,2", "ramp:2,0.1"}) {
    out.push_back(workload::from_spec(spec));
  }
  out.push_back(workload::trace({0.25, 1.5, 0.75}));
  return out;
}

/// The reference a draw must match: one sample() call per task (one
/// uniform01() call at a time), then the sums as separate loops.
struct Reference {
  std::vector<double> times;
  std::vector<double> prefix;
  double total = 0.0;
};

Reference per_sample(const workload::TaskTimeGenerator& gen, std::size_t n,
                     workload::RandomSource& rng, double total_in) {
  Reference ref;
  for (std::size_t i = 0; i < n; ++i) ref.times.push_back(gen.sample(i, n, rng));
  ref.prefix.assign(n + 1, 0.0);
  double run = 0.0;
  ref.total = total_in;
  for (std::size_t i = 0; i < n; ++i) {
    run += ref.times[i];
    ref.prefix[i + 1] = run;
    ref.total += ref.times[i];
  }
  return ref;
}

TEST(TaskDraw, EveryPartMatchesPerSampleGenerationBitwise) {
  const std::size_t block = workload::kDrawBlock;
  for (const bool rand48 : {false, true}) {
    for (const auto& gen : all_generators()) {
      for (const std::size_t n : {std::size_t{0}, std::size_t{1}, block - 1, block, block + 1,
                                  3 * block + 7}) {
        for (const double total_in : {0.0, 12.375}) {
          SCOPED_TRACE(gen->name() + " n=" + std::to_string(n) +
                       (rand48 ? " rand48" : " xoshiro") +
                       " total_in=" + std::to_string(total_in));
          const auto ref_rng = workload::make_source(77, rand48);
          const Reference ref = per_sample(*gen, n, *ref_rng, total_in);

          const auto rng = workload::make_source(77, rand48);
          TaskDraw draw;
          gen->draw(draw, n, *rng, kAll, total_in);
          EXPECT_EQ(draw.parts, kAll);
          EXPECT_EQ(bits(draw.times), bits(ref.times));
          EXPECT_EQ(bits(draw.prefix), bits(ref.prefix));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(draw.total),
                    std::bit_cast<std::uint64_t>(ref.total));
          if (total_in == 0.0 && n > 0) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(draw.total),
                      std::bit_cast<std::uint64_t>(draw.prefix[n]));
          }
          EXPECT_EQ(rng->next_u64(), ref_rng->next_u64()) << "source position";

          // generate_into is the times-only case of the same loop.
          const auto times_rng = workload::make_source(77, rand48);
          std::vector<double> times;
          gen->generate_into(times, n, *times_rng);
          EXPECT_EQ(bits(times), bits(ref.times));
          const auto after = workload::make_source(77, rand48);
          (void)per_sample(*gen, n, *after, 0.0);
          EXPECT_EQ(times_rng->next_u64(), after->next_u64()) << "source position";
        }
      }
    }
  }
}

TEST(TaskDraw, EachPartSubsetMatchesTheFullDrawAndClearsTheRest) {
  const auto gen = workload::exponential(1.0);
  const std::size_t n = workload::kDrawBlock + 3;
  TaskDraw full;
  {
    const auto rng = workload::make_source(5, false);
    gen->draw(full, n, *rng, kAll, 2.5);
  }
  TaskDraw draw;  // reused: parts left over from an earlier draw go away
  for (const DrawParts parts :
       {kAll, DrawParts::kTimes, DrawParts::kPrefix, DrawParts::kTotal,
        DrawParts::kPrefix | DrawParts::kTotal, DrawParts::kTimes | DrawParts::kTotal,
        DrawParts::kNone}) {
    const auto rng = workload::make_source(5, false);
    gen->draw(draw, n, *rng, parts, 2.5);
    const auto reference = workload::make_source(5, false);
    (void)gen->generate(n, *reference);
    EXPECT_EQ(rng->next_u64(), reference->next_u64()) << "source position";
    EXPECT_EQ(draw.parts, parts);
    EXPECT_EQ(bits(draw.times),
              workload::includes(parts, DrawParts::kTimes) ? bits(full.times)
                                                           : std::vector<std::uint64_t>{});
    EXPECT_EQ(bits(draw.prefix),
              workload::includes(parts, DrawParts::kPrefix) ? bits(full.prefix)
                                                            : std::vector<std::uint64_t>{});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(draw.total),
              std::bit_cast<std::uint64_t>(
                  workload::includes(parts, DrawParts::kTotal) ? full.total : 0.0));
  }
}

TEST(RandomSource, BlockFillEqualsOneUniformAtATime) {
  for (const bool rand48 : {false, true}) {
    const auto block = workload::make_source(9, rand48);
    const auto single = workload::make_source(9, rand48);
    std::vector<double> filled(1000);
    block->fill_uniform01(filled.data(), filled.size());
    for (const double u : filled) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(u), std::bit_cast<std::uint64_t>(single->uniform01()));
    }
    EXPECT_EQ(block->next_u64(), single->next_u64());
  }
}

}  // namespace
