// Example: the TSS-publication reproducibility study (paper Section
// III-A / IV-A, Figures 3 and 4) driven through the public repro API.
//
// Two models of the same experiment are compared:
//   * bbn::run        -- a machine model of the original BBN GP-1000
//                        shared-memory measurements,
//   * mw::run_simulation -- the explicit master-worker simulation the
//                        paper built in SimGrid-MSG.
//
// Run: ./build/examples/tss_reproduction [--experiment 1|2]

#include <cstdlib>
#include <iostream>

#include "repro/tss_experiment.hpp"
#include "support/flags.hpp"

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("experiment", "1", "TSS publication experiment (1 or 2)");
  flags.define("pes", "8,16,32,48,64,72,80", "PE counts");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }

  const std::int64_t which = flags.get_int("experiment");
  if (which != 1 && which != 2) {
    std::cerr << "--experiment must be 1 or 2\n";
    return EXIT_FAILURE;
  }
  repro::TssOptions options = which == 1 ? repro::tss_experiment1() : repro::tss_experiment2();
  options.pes = flags.get_count_list("pes");

  std::cout << "TSS publication experiment " << which << ": " << options.tasks
            << " tasks, constant " << support::fmt(options.task_seconds * 1e6, 0)
            << " us workload\n\n";

  const auto points = repro::run_tss_experiment(options);
  repro::tss_speedup_table(points, options).print(std::cout);

  // Reproduce the paper's verdict programmatically: which series
  // reproduce (sim within 10% of the original at the largest p) and
  // which do not.
  std::cout << "\nverdict at p = " << options.pes.back() << ":\n";
  for (const repro::TssSeries& s : options.series) {
    for (const auto& p : points) {
      if (p.label != s.label || p.pes != options.pes.back()) continue;
      const double rel =
          100.0 * (p.simgrid_speedup - p.original_speedup) / p.original_speedup;
      std::cout << "  " << s.label << ": original " << support::fmt(p.original_speedup, 1)
                << ", simulation " << support::fmt(p.simgrid_speedup, 1) << " ("
                << support::fmt(rel, 1) << "% off) -> "
                << (std::abs(rel) <= 10.0 ? "reproduces" : "does NOT reproduce") << "\n";
    }
  }
  std::cout << "\n(the paper found CSS/TSS reproduce while SS and GSS(1) do not;\n"
               " it attributes the gap to implicit shared-memory parallelism)\n";
  return EXIT_SUCCESS;
}
