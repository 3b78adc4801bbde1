// sweep::Grid: `sweep <key> <v1> <v2> ...` directives expand into the
// cartesian product of experiments, cells are enumerated row-major in
// axis declaration order, and every cell of a real grid gets a
// decorrelated splitmix64-derived base seed.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "mw/batch.hpp"
#include "sweep/grid.hpp"

namespace {

constexpr const char* kGrid =
    "# Table-2-style grid\n"
    "workload  exponential:1.0\n"
    "tasks     512\n"
    "h         0.5\n"
    "seed      42\n"
    "replicas  7\n"
    "sweep technique SS GSS TSS\n"
    "sweep workers   2 4\n";

TEST(SweepGrid, ExpandsCartesianProduct) {
  const sweep::Grid grid = sweep::parse_grid(kGrid);
  ASSERT_EQ(grid.axes.size(), 2u);
  EXPECT_EQ(grid.axes[0].key, "technique");
  EXPECT_EQ(grid.axes[1].key, "workers");
  EXPECT_EQ(grid.cells(), 6u);

  // Row-major: first axis outermost, last axis fastest.
  const dls::Kind kinds[] = {dls::Kind::kSS, dls::Kind::kSS, dls::Kind::kGSS,
                             dls::Kind::kGSS, dls::Kind::kTSS, dls::Kind::kTSS};
  const std::size_t workers[] = {2, 4, 2, 4, 2, 4};
  for (std::size_t i = 0; i < 6; ++i) {
    const sweep::Cell c = sweep::cell(grid, i);
    EXPECT_EQ(c.index, i);
    EXPECT_EQ(c.spec.config.technique, kinds[i]) << "cell " << i;
    EXPECT_EQ(c.spec.config.workers, workers[i]) << "cell " << i;
    EXPECT_EQ(c.spec.replicas, 7u);
    ASSERT_EQ(c.assignment.size(), 2u);
    EXPECT_EQ(c.assignment[0].first, "technique");
    EXPECT_EQ(c.assignment[1].first, "workers");
  }
}

TEST(SweepGrid, SweptKeyOverridesBaseKey) {
  // The base text may fix a key the sweep also varies; the sweep value
  // wins (the experiment parser takes the last assignment).
  const sweep::Grid grid = sweep::parse_grid(
      "technique SS\ntasks 100\nworkers 8\nworkload constant:1\nsweep workers 2 4\n");
  EXPECT_EQ(sweep::cell(grid, 0).spec.config.workers, 2u);
  EXPECT_EQ(sweep::cell(grid, 1).spec.config.workers, 4u);
}

TEST(SweepGrid, CellsGetDecorrelatedDerivedSeeds) {
  const sweep::Grid grid = sweep::parse_grid(kGrid);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < grid.cells(); ++i) {
    const sweep::Cell c = sweep::cell(grid, i);
    const exec::BatchJob job = sweep::batch_job(grid, c);
    // The spec seed is the base; the job seed is the derivation.
    EXPECT_EQ(c.spec.config.seed, 42u);
    EXPECT_EQ(job.config.seed, mw::derive_cell_seed(42, i));
    seeds.insert(job.config.seed);
  }
  EXPECT_EQ(seeds.size(), grid.cells());  // collision-free
}

TEST(SweepGrid, PlainExperimentKeepsItsSeedVerbatim) {
  // No sweep directive -> one cell, seed untouched, so `dls_sweep -`
  // runs a single experiment exactly as written.
  const sweep::Grid grid =
      sweep::parse_grid("technique SS\ntasks 100\nworkers 2\nworkload constant:1\nseed 7\n");
  EXPECT_TRUE(grid.axes.empty());
  EXPECT_EQ(grid.cells(), 1u);
  const exec::BatchJob job = sweep::batch_job(grid, sweep::cell(grid, 0));
  EXPECT_EQ(job.config.seed, 7u);
}

TEST(SweepGrid, SeedStrideAndReplicasFlowIntoTheJob) {
  const sweep::Grid grid = sweep::parse_grid(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1\n"
      "replicas 9\nseed_stride 104729\nsweep h 0.1 0.5\n");
  const exec::BatchJob job = sweep::batch_job(grid, sweep::cell(grid, 1));
  EXPECT_EQ(job.replicas, 9u);
  EXPECT_EQ(job.seed_stride, 104729u);
  EXPECT_DOUBLE_EQ(job.config.params.h, 0.5);
}

TEST(SweepGrid, CellTextIsParseable) {
  const sweep::Grid grid = sweep::parse_grid(kGrid);
  const std::string text = sweep::cell_text(grid, 3);
  const repro::ExperimentSpec spec = repro::parse_experiment_spec(text);
  EXPECT_EQ(spec.config.technique, dls::Kind::kGSS);
  EXPECT_EQ(spec.config.workers, 4u);
}

TEST(SweepGrid, RejectsBadDirectives) {
  // Axis without values.
  EXPECT_THROW((void)sweep::parse_grid("technique SS\nsweep workers\n"), std::invalid_argument);
  // Duplicate axis.
  EXPECT_THROW(
      (void)sweep::parse_grid("technique SS\ntasks 1\nworkers 1\nworkload constant:1\n"
                              "sweep h 1 2\nsweep h 3 4\n"),
      std::invalid_argument);
  // Duplicate value within an axis (a typo'd repeat would silently run
  // duplicate cells and emit duplicate bench entry names).
  EXPECT_THROW(
      (void)sweep::parse_grid("technique SS\ntasks 1\nworkload constant:1\n"
                              "sweep workers 64 64 256\n"),
      std::invalid_argument);
  // A typo in a swept key fails at parse_grid time (cell 0 is
  // validated), not mid-sweep.
  try {
    (void)sweep::parse_grid("technique SS\ntasks 1\nworkers 1\nworkload constant:1\n"
                            "sweep worekrs 2 4\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cell 0"), std::string::npos) << e.what();
  }
  // A bad swept value, too.
  EXPECT_THROW(
      (void)sweep::parse_grid("technique SS\ntasks 1\nworkers 1\nworkload constant:1\n"
                              "sweep workers 2 banana\n"),
      std::invalid_argument);
  // Missing mandatory base keys surface through cell-0 validation.
  EXPECT_THROW((void)sweep::parse_grid("sweep workers 2 4\n"), std::invalid_argument);
}

TEST(SweepGridBackend, BackendAxisIsCanonicalizedInnermostAndSorted) {
  // Declared outermost and in "mw hagerup" order; the parser moves the
  // execution-vehicle axis innermost and sorts its values, so record
  // order, sharding and merges are declaration-independent.
  const sweep::Grid grid = sweep::parse_grid(
      "workload constant:1\ntasks 64\nworkers 2\nseed 42\n"
      "sweep backend mw hagerup\nsweep technique SS GSS\n");
  ASSERT_EQ(grid.axes.size(), 2u);
  EXPECT_EQ(grid.axes[0].key, "technique");
  EXPECT_EQ(grid.axes[1].key, "backend");
  EXPECT_EQ(grid.axes[1].values, (std::vector<std::string>{"hagerup", "mw"}));
  EXPECT_EQ(grid.cells(), 4u);
  EXPECT_EQ(grid.science_cells(), 2u);
  EXPECT_EQ(grid.backend_count(), 2u);
  EXPECT_EQ(grid.science_axes(), 1u);

  // Enumeration: backend fastest -> (SS,hagerup), (SS,mw), (GSS,...).
  EXPECT_EQ(sweep::cell(grid, 0).spec.backend, "hagerup");
  EXPECT_EQ(sweep::cell(grid, 1).spec.backend, "mw");
  EXPECT_EQ(sweep::cell(grid, 2).spec.config.technique, dls::Kind::kGSS);
  EXPECT_EQ(sweep::cell_backend(grid, 2), "hagerup");
  EXPECT_EQ(sweep::cell(grid, 3).science_index, 1u);
}

TEST(SweepGridBackend, BackendVariantsOfACellShareTheDerivedSeed) {
  // The scientific index drives seed derivation, so every execution
  // vehicle replays a cell on identical seeds -- and the mw slice is
  // seeded exactly like the same grid without the backend axis.
  const sweep::Grid with_axis = sweep::parse_grid(
      "workload constant:1\ntasks 64\nworkers 2\nseed 42\n"
      "sweep technique SS GSS TSS\nsweep backend mw hagerup\n");
  const sweep::Grid without_axis = sweep::parse_grid(
      "workload constant:1\ntasks 64\nworkers 2\nseed 42\n"
      "sweep technique SS GSS TSS\n");
  for (std::size_t science = 0; science < 3; ++science) {
    const exec::BatchJob hagerup_job =
        sweep::batch_job(with_axis, sweep::cell(with_axis, 2 * science));
    const exec::BatchJob mw_job =
        sweep::batch_job(with_axis, sweep::cell(with_axis, 2 * science + 1));
    const exec::BatchJob plain_job =
        sweep::batch_job(without_axis, sweep::cell(without_axis, science));
    EXPECT_EQ(hagerup_job.backend, "hagerup");
    EXPECT_EQ(mw_job.backend, "mw");
    EXPECT_EQ(hagerup_job.config.seed, mw_job.config.seed) << "cell " << science;
    EXPECT_EQ(mw_job.config.seed, plain_job.config.seed) << "cell " << science;
    EXPECT_EQ(mw_job.config.seed, mw::derive_cell_seed(42, science));
  }
}

TEST(SweepGridBackend, PureBackendSweepKeepsTheSeedVerbatim) {
  // No scientific axis -> no derivation, exactly like a plain file, so
  // the vehicles compare on the spec's own seed.
  const sweep::Grid grid = sweep::parse_grid(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1\nseed 7\n"
      "sweep backend mw hagerup\n");
  EXPECT_EQ(grid.science_axes(), 0u);
  EXPECT_EQ(grid.science_cells(), 1u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sweep::batch_job(grid, sweep::cell(grid, i)).config.seed, 7u);
  }
}

TEST(SweepGridBackend, FixedBackendKeyFlowsIntoEveryJob) {
  const sweep::Grid grid = sweep::parse_grid(
      "technique SS\ntasks 64\nworkers 2\nworkload constant:1\nbackend hagerup\n"
      "sweep h 0.1 0.5\n");
  EXPECT_EQ(grid.backend_axis(), nullptr);
  EXPECT_EQ(grid.fixed_backend, "hagerup");
  EXPECT_EQ(sweep::cell_backend(grid, 1), "hagerup");
  EXPECT_EQ(sweep::batch_job(grid, sweep::cell(grid, 1)).backend, "hagerup");
}

TEST(SweepGridBackend, RejectsUnknownBackendValues) {
  EXPECT_THROW(
      (void)sweep::parse_grid("technique SS\ntasks 64\nworkers 2\nworkload constant:1\n"
                              "sweep backend mw simgrid\n"),
      std::invalid_argument);
  EXPECT_THROW(
      (void)sweep::parse_grid("technique SS\ntasks 64\nworkers 2\nworkload constant:1\n"
                              "backend banana\n"),
      std::invalid_argument);
}

TEST(SweepGrid, OutOfRangeCellThrows) {
  const sweep::Grid grid = sweep::parse_grid(kGrid);
  EXPECT_THROW((void)sweep::cell(grid, grid.cells()), std::out_of_range);
}

}  // namespace
