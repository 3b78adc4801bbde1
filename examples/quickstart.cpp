// Quickstart: the minimal end-to-end use of the library, walking the
// information checklist of paper Figure 2.
//
//   1. Application information: number of tasks, task-time distribution,
//      the DLS technique and its Table I parameters.
//   2. System information: hosts and network.  mw::Config's defaults
//      (1 Gflop/s hosts, a near-null star network) are kept here;
//      run_simulation builds the master-worker star from them.
//   3. Execution: run the master-worker simulation and report the
//      measured values (wasted time, speedup, chunk count).
//
// Build & run:  ./build/examples/quickstart [--technique FAC2] [--tasks 4096]

#include <cstdlib>
#include <iostream>

#include "dls/params.hpp"
#include "mw/metrics.hpp"
#include "mw/simulation.hpp"
#include "mw/trace.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"
#include "workload/task_times.hpp"

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("technique", "FAC2", "DLS technique (STAT SS CSS FSC GSS TSS FAC FAC2 BOLD ...)");
  flags.define("tasks", "4096", "number of tasks n");
  flags.define("workers", "8", "number of worker PEs p");
  flags.define("workload", "exponential:1.0", "task-time spec (see workload::from_spec)");
  flags.define("h", "0.5", "scheduling overhead per operation [s]");
  flags.define("seed", "42", "random seed");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }

  // --- application, system and execution information ---
  mw::Config cfg;
  cfg.technique = dls::kind_from_string(flags.get("technique"));
  cfg.tasks = flags.get_count<std::size_t>("tasks");
  cfg.workers = flags.get_count<std::size_t>("workers");
  cfg.workload = workload::from_spec(flags.get("workload"));
  cfg.params.h = flags.get_double("h");
  cfg.params.mu = cfg.workload->mean();
  cfg.params.sigma = cfg.workload->stddev();
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.record_chunk_log = true;

  const mw::RunResult result = mw::run_simulation(cfg);
  const mw::Metrics metrics = mw::compute_metrics(result, cfg);

  support::Table table({"measured value", "result"});
  table.add_row({"technique", dls::to_string(cfg.technique)});
  table.add_row({"tasks / workers", std::to_string(cfg.tasks) + " / " +
                                        std::to_string(cfg.workers)});
  table.add_row({"workload", cfg.workload->name()});
  table.add_row({"makespan [s]", support::fmt(metrics.makespan, 3)});
  table.add_row({"scheduling operations", std::to_string(metrics.chunks)});
  table.add_row({"average wasted time [s]", support::fmt(metrics.avg_wasted_time, 3)});
  table.add_row({"speedup", support::fmt(metrics.speedup, 2)});
  table.print(std::cout);

  std::cout << "\nexecution timeline ('#' = executing tasks):\n"
            << mw::ascii_gantt(result, 72);
  return EXIT_SUCCESS;
}
