// Regenerates paper Figure 9: the average wasted time of each
// individual run of FAC with 2 workers and 524288 tasks, exposing the
// heavy tail that makes the FAC/p=2 cell of Figure 8 an outlier.
//
// The paper's analysis: only 15 of 1000 values exceeded 400 s (1.5%);
// excluding them drops the mean to 25.82 s and the relative discrepancy
// below 1%.  This bench reports the same trimming.

#include <cstdlib>
#include <iostream>

#include "repro/bold_experiment.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "support/flags.hpp"

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("runs", "1000", "number of runs (paper: 1000)");
  flags.define("threads", "0", "worker threads (0 = hardware concurrency)");
  flags.define("cutoff", "400", "outlier cutoff in seconds (paper: 400)");
  flags.define("series", "false", "also print the full per-run series");
  flags.define("sweep-spec", "false",
               "print the FAC/p=2 cell as a dls_sweep spec and exit");
  flags.define("backend", "mw",
               "execution backend of the simulated runs (mw | hagerup | runtime)");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }

  repro::BoldOptions options;
  options.tasks = 524288;
  options.runs = flags.get_count<std::size_t>("runs");
  options.threads = flags.get_count<unsigned>("threads");
  options.sim_backend = flags.get("backend");
  const double cutoff = flags.get_double("cutoff");

  if (flags.get_bool("sweep-spec")) {
    // The Figure 9 cell as a one-cell grid; the sweep record's
    // p5/p95/median and CI summarize the heavy tail this bench plots.
    options.techniques = {dls::Kind::kFAC};
    options.pes = {2};
    std::cout << repro::bold_sim_spec_text(options);
    return EXIT_SUCCESS;
  }

  std::cout << "=== Figure 9: per-run average wasted time, FAC, p = 2, n = 524288 ===\n"
            << "protocol: " << options.runs << " runs, exponential mu = 1 s, h = 0.5 s\n\n";

  const std::vector<double> series =
      repro::bold_sim_run_series(options, dls::Kind::kFAC, /*pes=*/2);

  if (flags.get_bool("series")) {
    for (std::size_t i = 0; i < series.size(); ++i) {
      std::cout << i << "," << support::fmt(series[i], 3) << "\n";
    }
    std::cout << "\n";
  }

  const stats::Summary summary = stats::summarize(series);
  const stats::TrimmedMean trimmed = stats::mean_below(series, cutoff);

  stats::Histogram hist(0.0, cutoff > 0 ? cutoff : 400.0, 8);
  hist.add_all(series);
  std::cout << "distribution of per-run values [s]:\n" << hist.to_ascii() << "\n";

  support::Table table({"statistic", "value"});
  table.add_row({"runs", std::to_string(summary.count)});
  table.add_row({"mean [s]", support::fmt(summary.mean, 2)});
  table.add_row({"median [s]", support::fmt(summary.median, 2)});
  table.add_row({"p95 [s]", support::fmt(summary.p95, 2)});
  table.add_row({"max [s]", support::fmt(summary.max, 2)});
  table.add_row({"values > " + support::fmt(cutoff, 0) + " s", std::to_string(trimmed.removed)});
  table.add_row({"share > cutoff [%]",
                 support::fmt(100.0 * static_cast<double>(trimmed.removed) /
                                  static_cast<double>(summary.count),
                              2)});
  table.add_row({"trimmed mean [s]", support::fmt(trimmed.mean, 2)});
  table.print(std::cout);

  std::cout << "\npaper values to compare against: 15/1000 runs above 400 s (1.5%),\n"
               "trimmed mean 25.82 s.\n";
  return EXIT_SUCCESS;
}
