// Extension bench: the techniques the paper defers to future work
// ("Future work remains for verifying the TAP and the adaptive
// techniques (AF, AWF, and AWF-B/C)"), run through the same
// dual-simulator harness as Figures 5-8.
//
// Both sides implement the techniques independently (direct simulator
// vs message-passing master-worker), so agreement here is the same
// verification-via-reproducibility argument the paper makes for the
// eight non-adaptive techniques.

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "repro/bold_experiment.hpp"
#include "support/flags.hpp"

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("runs", "200", "runs per cell and side");
  flags.define("threads", "0", "worker threads");
  flags.define("csv", "false", "emit CSV");
  flags.define("tasks", "8192", "number of tasks");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }

  repro::BoldOptions options;
  options.tasks = flags.get_count<std::size_t>("tasks");
  options.runs = flags.get_count<std::size_t>("runs");
  options.threads = flags.get_count<unsigned>("threads");
  options.pes = {2, 8, 64, 256};
  options.techniques = {dls::Kind::kTAP,  dls::Kind::kWF,   dls::Kind::kAWF,
                        dls::Kind::kAWFB, dls::Kind::kAWFC, dls::Kind::kAF};
  const bool csv = flags.get_bool("csv");

  std::cout << "=== Extension: verification of TAP and the adaptive techniques ===\n"
            << "(the paper's future work, run through the Figures 5-8 harness;\n"
            << " n = " << options.tasks << ", " << options.runs
            << " runs/cell, exp(mu=1), h = 0.5 s)\n\n";

  const std::vector<repro::BoldCell> cells = repro::run_bold_experiment(options);
  auto emit = [&](const char* title, const support::Table& table) {
    std::cout << title << "\n" << (csv ? table.to_csv() : table.to_ascii()) << "\n";
  };
  emit("(a) replicated direct simulator [s]:",
       repro::bold_values_table(cells, options, true));
  emit("(b) simx master-worker simulation [s]:",
       repro::bold_values_table(cells, options, false));
  emit("(d) relative discrepancy [%]:",
       repro::bold_discrepancy_table(cells, options, true));

  double max_rel = 0.0;
  for (const repro::BoldCell& c : cells) {
    max_rel = std::max(max_rel, std::abs(c.discrepancy.relative_percent));
  }
  std::cout << "summary: max |relative discrepancy| = " << support::fmt(max_rel, 1) << " %\n";
  return EXIT_SUCCESS;
}
