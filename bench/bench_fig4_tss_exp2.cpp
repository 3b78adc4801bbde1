// Regenerates paper Figure 4: reproducibility of experiment 2 from the
// TSS publication -- speedup of SS, CSS, GSS(1), GSS(5), TSS for 10000
// tasks with constant workload of 2 ms.

#include <cstdlib>
#include <iostream>

#include "repro/tss_experiment.hpp"
#include "support/flags.hpp"

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("csv", "false", "emit CSV instead of aligned tables");
  flags.define("pes", "2,8,16,24,32,40,48,56,64,72,80", "PE counts to sweep");
  flags.define("sweep-spec", "false",
               "print one series' simulation side as a dls_sweep spec and exit");
  flags.define("series", "", "series label for --sweep-spec (default: the first, SS)");
  flags.define("backend", "mw",
               "execution backend of the simulation side (mw | hagerup | runtime)");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }

  repro::TssOptions options = repro::tss_experiment2();
  options.pes = flags.get_count_list("pes");
  options.sim_backend = flags.get("backend");

  if (flags.get_bool("sweep-spec")) {
    // One grid per series: a series couples technique and css/gss
    // knobs, which the cartesian sweep format cannot vary jointly.
    const std::string label = flags.get("series");
    for (const repro::TssSeries& s : options.series) {
      if (label.empty() || s.label == label) {
        std::cout << repro::tss_sim_spec_text(options, s);
        return EXIT_SUCCESS;
      }
    }
    std::cerr << "unknown --series '" << label << "'; available:";
    for (const repro::TssSeries& s : options.series) std::cerr << " " << s.label;
    std::cerr << "\n";
    return EXIT_FAILURE;
  }

  std::cout << "=== Figure 4: TSS publication experiment 2 ===\n"
            << "workload: " << options.tasks << " tasks, constant "
            << support::fmt(options.task_seconds * 1e3, 0) << " ms each\n\n";

  std::vector<repro::TssPoint> points;
  try {
    points = repro::run_tss_experiment(options);
  } catch (const std::exception& e) {
    // E.g. a backend that cannot express the simulated-overhead mode.
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }
  const support::Table table = repro::tss_speedup_table(points, options);
  std::cout << (flags.get_bool("csv") ? table.to_csv() : table.to_ascii());

  std::cout << "\npaper finding to compare against: with 2 ms tasks the dispatch costs\n"
               "amortize -- CSS, GSS(5) and TSS perform similarly, while SS and GSS(1)\n"
               "do not reproduce the original magnitudes.\n";
  return EXIT_SUCCESS;
}
