// Example: DLS techniques on a heterogeneous cluster -- the scenario
// weighted factoring (WF) and its adaptive descendants were designed
// for (paper Section II).
//
// Platform: 8 workers in three speed tiers (4x fast, 2x medium, 2x at
// quarter speed), irregular task times (gamma-distributed), and a
// comparison across static, dynamic, weighted and adaptive techniques.
//
// Run: ./build/examples/heterogeneous_cluster [--tasks 16384]

#include <cstdlib>
#include <iostream>

#include "mw/metrics.hpp"
#include "mw/simulation.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"
#include "workload/task_times.hpp"

namespace {

mw::Config make_config(dls::Kind kind, std::size_t tasks, std::uint64_t seed) {
  mw::Config cfg;
  cfg.technique = kind;
  cfg.workers = 8;
  cfg.tasks = tasks;
  // Irregular workload: gamma(2, 0.5) -> mean 1 s, cv ~ 0.71.
  cfg.workload = workload::gamma(2.0, 0.5);
  cfg.params.mu = cfg.workload->mean();
  cfg.params.sigma = cfg.workload->stddev();
  cfg.params.h = 0.005;
  cfg.overhead_mode = mw::OverheadMode::kSimulated;
  cfg.latency = 20e-6;
  cfg.bandwidth = 1e9;
  cfg.worker_speed_factors = {1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.25, 0.25};
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("tasks", "16384", "number of tasks");
  flags.define("seed", "7", "random seed");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }
  const auto tasks = flags.get_count<std::size_t>("tasks");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // Platform capacity: 4*1 + 2*0.5 + 2*0.25 = 5.5 nominal PEs.
  std::cout << "heterogeneous cluster: 8 workers (4 fast / 2 half / 2 quarter speed),\n"
            << tasks << " gamma(2,0.5) tasks, simulated overhead h = 5 ms, 20 us links\n"
            << "ideal speedup (platform capacity): 5.50\n\n";

  support::Table table(
      {"technique", "speedup", "avg wasted [s]", "chunks", "fast:slow task ratio"});
  for (const dls::Kind kind :
       {dls::Kind::kStatic, dls::Kind::kSS, dls::Kind::kGSS, dls::Kind::kFAC2, dls::Kind::kWF,
        dls::Kind::kAWFB, dls::Kind::kAWFC, dls::Kind::kAF}) {
    mw::Config cfg = make_config(kind, tasks, seed);
    if (kind == dls::Kind::kWF) {
      // WF gets told the true relative speeds; the adaptive techniques
      // must discover them.
      cfg.params.weights = cfg.worker_speed_factors;
    }
    const mw::RunResult r = mw::run_simulation(cfg);
    const mw::Metrics m = mw::compute_metrics(r, cfg);
    double fast = 0.0, slow = 0.0;
    for (std::size_t i = 0; i < 4; ++i) fast += static_cast<double>(r.workers[i].tasks);
    for (std::size_t i = 4; i < 8; ++i) slow += static_cast<double>(r.workers[i].tasks);
    table.add_row({dls::to_string(kind), support::fmt(m.speedup, 2),
                   support::fmt(m.avg_wasted_time, 1), std::to_string(m.chunks),
                   support::fmt(fast / slow, 2)});
  }
  table.print(std::cout);
  std::cout << "\nreading guide: STAT ignores speeds entirely (ratio 1.00, speedup ~2);\n"
               "SS balances blindly but pays one round-trip per task; WF, told the true\n"
               "weights, reaches the platform ideal with ~90 chunks.  The adaptive\n"
               "techniques (AWF-B/C, AF) *learn* the speed ratio, yet in a single sweep\n"
               "they cannot beat FAC2: their first batch is handed out before any\n"
               "measurement exists, and a quarter-speed worker holding a first-batch\n"
               "chunk already binds the makespan.  This is precisely why AWF targets\n"
               "time-stepping applications -- see examples/timestepping_awf.\n";
  return EXIT_SUCCESS;
}
