// Example: the BOLD-publication reproducibility study (paper Sections
// III-B / IV-B) on a reduced grid, including the Figure 9 outlier
// analysis for FAC with 2 workers.
//
// Run: ./build/examples/bold_reproduction [--tasks 8192] [--runs 200]

#include <cstdlib>
#include <iostream>

#include "repro/bold_experiment.hpp"
#include "stats/summary.hpp"
#include "support/flags.hpp"

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("tasks", "8192", "number of tasks n");
  flags.define("runs", "200", "runs per cell and side");
  flags.define("pes", "2,8,64", "PE counts");
  flags.define("cutoff", "400", "Figure 9 outlier cutoff [s]");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }

  repro::BoldOptions options;
  options.tasks = flags.get_count<std::size_t>("tasks");
  options.runs = flags.get_count<std::size_t>("runs");
  options.pes = flags.get_count_list("pes");

  std::cout << "BOLD publication reproduction, n = " << options.tasks << ", " << options.runs
            << " runs/cell (paper grid: Table III; h = 0.5 s, exp(mu = 1 s))\n\n";

  const auto cells = repro::run_bold_experiment(options);
  std::cout << "(a) replicated original simulator [s]:\n"
            << repro::bold_values_table(cells, options, true).to_ascii() << "\n"
            << "(b) simx master-worker simulation [s]:\n"
            << repro::bold_values_table(cells, options, false).to_ascii() << "\n"
            << "(d) relative discrepancy [%]:\n"
            << repro::bold_discrepancy_table(cells, options, true).to_ascii() << "\n";

  // Figure 9 style outlier analysis on the FAC / p = 2 cell.
  const double cutoff = flags.get_double("cutoff");
  const std::vector<double> series = repro::bold_sim_run_series(options, dls::Kind::kFAC, 2);
  const stats::Summary summary = stats::summarize(series);
  const stats::TrimmedMean trimmed = stats::mean_below(series, cutoff);
  std::cout << "Figure 9 analysis (FAC, p = 2): mean " << support::fmt(summary.mean, 2)
            << " s, max " << support::fmt(summary.max, 2) << " s; " << trimmed.removed << "/"
            << summary.count << " runs above " << support::fmt(cutoff, 0)
            << " s; trimmed mean " << support::fmt(trimmed.mean, 2) << " s\n"
            << "(the exponential tail inflates FAC's sample mean at p = 2 -- the\n"
            << " paper's explanation for its single outlier cell)\n";
  return EXIT_SUCCESS;
}
