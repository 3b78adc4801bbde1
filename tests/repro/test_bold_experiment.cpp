#include <gtest/gtest.h>

#include <cmath>

#include "hagerup/simulator.hpp"
#include "repro/bold_experiment.hpp"
#include "workload/task_times.hpp"

namespace {

repro::BoldOptions tiny_options() {
  repro::BoldOptions options;
  options.tasks = 256;
  options.pes = {2, 4};
  options.techniques = {dls::Kind::kSS, dls::Kind::kFAC2, dls::Kind::kBOLD};
  options.runs = 12;
  return options;
}

TEST(BoldExperiment, GridMatchesPaperTable3) {
  const repro::BoldGrid grid = repro::bold_grid();
  EXPECT_EQ(grid.tasks, (std::vector<std::size_t>{1024, 8192, 65536, 524288}));
  EXPECT_EQ(grid.pes, (std::vector<std::size_t>{2, 8, 64, 256, 1024}));
  const support::Table table = repro::bold_grid_table();
  EXPECT_EQ(table.rows(), 4u);
  EXPECT_NE(table.to_ascii().find("Figure 8"), std::string::npos);
}

TEST(BoldExperiment, ProducesCompleteCellGrid) {
  const repro::BoldOptions options = tiny_options();
  const auto cells = repro::run_bold_experiment(options);
  EXPECT_EQ(cells.size(), options.techniques.size() * options.pes.size());
  for (const repro::BoldCell& c : cells) {
    EXPECT_GT(c.original, 0.0);
    EXPECT_GT(c.simgrid, 0.0);
    EXPECT_TRUE(std::isfinite(c.discrepancy.relative_percent));
  }
}

TEST(BoldExperiment, TwoSidesAgreeWithinReason) {
  // The whole point of the paper: the master-worker simulation must
  // land near the replicated original simulator.  With only 12 runs we
  // allow a loose 35% band (the paper reports <= 15% at 1000 runs).
  const auto cells = repro::run_bold_experiment(tiny_options());
  for (const repro::BoldCell& c : cells) {
    EXPECT_LT(std::abs(c.discrepancy.relative_percent), 35.0)
        << dls::to_string(c.technique) << " p=" << c.pes << " orig=" << c.original
        << " sim=" << c.simgrid;
  }
}

TEST(BoldExperiment, SsWastedTimeScalesWithTasksOverPes) {
  // SS's average wasted time is dominated by h*n/p on both sides.
  repro::BoldOptions options = tiny_options();
  options.techniques = {dls::Kind::kSS};
  options.runs = 4;
  const auto cells = repro::run_bold_experiment(options);
  for (const repro::BoldCell& c : cells) {
    const double expected = 0.5 * 256.0 / static_cast<double>(c.pes);
    EXPECT_NEAR(c.original, expected, expected * 0.25) << "p=" << c.pes;
    EXPECT_NEAR(c.simgrid, expected, expected * 0.25) << "p=" << c.pes;
  }
}

TEST(BoldExperiment, DeterministicForSameOptions) {
  const repro::BoldOptions options = tiny_options();
  const auto a = repro::run_bold_experiment(options);
  const auto b = repro::run_bold_experiment(options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].original, b[i].original);
    EXPECT_DOUBLE_EQ(a[i].simgrid, b[i].simgrid);
  }
}

TEST(BoldExperiment, OriginalSideIsTheHagerupReplicaSeries) {
  // The original side is run i of the replicated Hagerup simulator at
  // seed_original + 7919 * i (rand48, analytic overhead accounting),
  // summarized bitwise -- whatever runner it goes through.
  const repro::BoldOptions options = tiny_options();
  const auto cells = repro::run_bold_experiment(options);
  for (const repro::BoldCell& c : cells) {
    std::vector<double> wasted;
    for (std::size_t i = 0; i < options.runs; ++i) {
      hagerup::Config cfg;
      cfg.technique = c.technique;
      cfg.pes = c.pes;
      cfg.tasks = options.tasks;
      cfg.params.h = options.h;
      cfg.params.mu = options.mu;
      cfg.params.sigma = options.sigma;
      cfg.workload = workload::exponential(options.mu);
      cfg.use_rand48 = true;
      cfg.charge_overhead_inline = false;
      cfg.seed = options.seed_original + 7919 * i;
      wasted.push_back(hagerup::run(cfg).avg_wasted_time);
    }
    const stats::Summary expected = stats::summarize(wasted);
    EXPECT_EQ(c.original, expected.mean) << dls::to_string(c.technique) << " p=" << c.pes;
    EXPECT_EQ(c.original_stddev, expected.stddev) << dls::to_string(c.technique) << " p=" << c.pes;
  }
}

TEST(BoldExperiment, RunSeriesHasRequestedLength) {
  repro::BoldOptions options = tiny_options();
  options.runs = 20;
  const auto series = repro::bold_sim_run_series(options, dls::Kind::kFAC, 2);
  EXPECT_EQ(series.size(), 20u);
  for (double v : series) EXPECT_GT(v, 0.0);
}

TEST(BoldExperiment, TablesAreWellFormed) {
  const repro::BoldOptions options = tiny_options();
  const auto cells = repro::run_bold_experiment(options);
  const support::Table values = repro::bold_values_table(cells, options, true);
  EXPECT_EQ(values.rows(), options.pes.size());
  EXPECT_EQ(values.cols(), options.techniques.size() + 1);
  const support::Table rel = repro::bold_discrepancy_table(cells, options, true);
  EXPECT_EQ(rel.rows(), options.pes.size());
  // CSV export sanity.
  EXPECT_NE(values.to_csv().find("PEs,SS,FAC2,BOLD"), std::string::npos);
}

TEST(BoldExperiment, RejectsZeroRuns) {
  repro::BoldOptions options = tiny_options();
  options.runs = 0;
  EXPECT_THROW((void)repro::run_bold_experiment(options), std::invalid_argument);
}

}  // namespace
