// Regenerates paper Figure 3: reproducibility of experiment 1 from the
// TSS publication (Tzen & Ni 1993) -- speedup of SS, CSS, GSS(1),
// GSS(80), TSS for 100000 tasks with constant workload of 110 us.
//
// "(a) original" is our BBN GP-1000 machine model (serialized atomic /
// lock dispatch, remote-memory inflation); "(b) simulation" is the simx
// master-worker run with guessed ("typical") network parameters --
// exactly the two sides whose magnitudes the paper could not reconcile
// while their tendencies matched.

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

  repro::TssOptions options = repro::tss_experiment1();
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

  std::cout << "=== Figure 3: TSS publication experiment 1 ===\n"
            << "workload: " << options.tasks << " tasks, constant "
            << support::fmt(options.task_seconds * 1e6, 0) << " us each\n"
            << "sides: orig = BBN GP-1000 machine model; sim = simx master-worker "
               "(latency "
            << options.sim_latency << " s, bandwidth " << options.sim_bandwidth << " B/s)\n\n";

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

  std::cout << "\npaper finding to compare against: CSS and TSS reproduce closely; the\n"
               "SS and GSS(1) curves share the tendency but differ strongly in value\n"
               "(implicit shared-memory dispatch vs explicit master-worker messages).\n";
  return EXIT_SUCCESS;
}
