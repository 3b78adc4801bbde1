#include "bold_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "repro/bold_experiment.hpp"
#include "support/flags.hpp"

namespace bench {

int run_bold_bench(const BoldBenchSpec& spec, int argc, char** argv) {
  support::Flags flags;
  flags.define("runs", std::to_string(spec.default_runs),
               "runs per (technique, p) cell and side");
  flags.define("full", "false", "use the paper-exact 1000 runs");
  flags.define("threads", "0", "worker threads (0 = hardware concurrency)");
  flags.define("csv", "false", "emit CSV instead of aligned tables");
  flags.define("pes", "2,8,64,256,1024", "PE counts to sweep");
  flags.define("sweep-spec", "false",
               "print the simulation-side grid as a dls_sweep spec and exit");
  flags.define("backend", "mw",
               "execution backend of the simulation side (mw | hagerup | runtime)");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }

  repro::BoldOptions options;
  options.tasks = spec.tasks;
  options.runs = flags.get_bool("full") ? 1000 : flags.get_count<std::size_t>("runs");
  options.threads = flags.get_count<unsigned>("threads");
  options.pes = flags.get_count_list("pes");
  options.sim_backend = flags.get("backend");
  const bool csv = flags.get_bool("csv");

  if (flags.get_bool("sweep-spec")) {
    // The bespoke grid loop as a declarative spec: pipe into
    // `dls_sweep -` to run the simulation side sharded/resumable.
    std::cout << repro::bold_sim_spec_text(options);
    return EXIT_SUCCESS;
  }

  std::cout << "=== " << spec.figure << ": average wasted time, n = " << spec.tasks
            << " tasks ===\n"
            << "protocol: " << options.runs << " runs/cell (paper: 1000; --full restores it), "
            << "exponential task times mu = " << options.mu << " s, sigma = " << options.sigma
            << " s, h = " << options.h << " s\n"
            << "sides: original = replicated Hagerup direct simulator (erand48); "
               "simulation = " << options.sim_backend
            << (options.sim_backend == "mw" ? " (simx master-worker, null network, analytic overhead)"
                                            : " (exec backend)")
            << "\n\n";
  std::cout << "Paper Table III (overview of reproducibility experiments):\n";
  std::cout << repro::bold_grid_table().to_ascii() << "\n";

  std::vector<repro::BoldCell> cells;
  try {
    cells = repro::run_bold_experiment(options);
  } catch (const std::exception& e) {
    // E.g. an unknown --backend name.
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }

  auto emit = [&](const char* title, const support::Table& table) {
    std::cout << title << "\n" << (csv ? table.to_csv() : table.to_ascii()) << "\n";
  };
  emit("(a) values from the replicated original simulator [s]:",
       repro::bold_values_table(cells, options, /*original_side=*/true));
  emit("(b) values from the simx master-worker simulation [s]:",
       repro::bold_values_table(cells, options, /*original_side=*/false));
  emit("(c) discrepancy (simulation - original) [s]:",
       repro::bold_discrepancy_table(cells, options, /*relative=*/false));
  emit("(d) relative discrepancy [%]:",
       repro::bold_discrepancy_table(cells, options, /*relative=*/true));

  // The prose summary the paper derives from each figure.
  double max_abs = 0.0, max_rel = 0.0, max_rel_no_outlier = 0.0;
  for (const repro::BoldCell& c : cells) {
    max_abs = std::max(max_abs, std::abs(c.discrepancy.absolute));
    max_rel = std::max(max_rel, std::abs(c.discrepancy.relative_percent));
    const bool fac_p2_outlier = c.technique == dls::Kind::kFAC && c.pes == 2;
    if (!fac_p2_outlier) {
      max_rel_no_outlier = std::max(max_rel_no_outlier, std::abs(c.discrepancy.relative_percent));
    }
  }
  std::cout << "summary: max |discrepancy| = " << support::fmt(max_abs, 2)
            << " s; max |relative| = " << support::fmt(max_rel, 1)
            << " %; excluding the FAC/p=2 outlier the paper discusses: "
            << support::fmt(max_rel_no_outlier, 1) << " %\n";
  return EXIT_SUCCESS;
}

}  // namespace bench
