// Example: a time-stepping application under perturbation -- the
// scenario AWF was designed for (paper Section II: "Adaptive weighted
// factoring (AWF) has originally been developed for time-stepping
// applications", adapting weights "by closely following the rate of
// change in PE speed after each time-step").
//
// Scenario: an N-body-style simulation sweeps the same 2048 particles
// for 12 time steps.  Midway through the run two of the four workers
// are slowed to 30% (an external load burst, modelled with simx host
// speed profiles).  AWF re-weights at each step boundary; WF (equal
// weights) and STAT cannot react.
//
// Run: ./build/examples/timestepping_awf

#include <cstdlib>
#include <iostream>

#include "mw/metrics.hpp"
#include "mw/simulation.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"
#include "workload/task_times.hpp"

namespace {

mw::Config make_config(dls::Kind kind, std::size_t tasks, std::size_t steps) {
  mw::Config cfg;
  cfg.technique = kind;
  cfg.workers = 4;
  cfg.tasks = tasks;
  cfg.timesteps = steps;
  // Mildly irregular per-particle cost.
  cfg.workload = workload::uniform(0.8, 1.2);
  cfg.params.mu = cfg.workload->mean();
  cfg.params.sigma = cfg.workload->stddev();
  cfg.params.h = 0.002;
  cfg.seed = 99;
  // Perturbation: workers 2 and 3 drop to 30% speed from t = 2000 s on
  // (roughly a third into the run).
  const double full = 1e9;
  cfg.worker_speed_profiles = {
      simx::SpeedProfile{{0.0}, {full}},
      simx::SpeedProfile{{0.0}, {full}},
      simx::SpeedProfile{{0.0, 2000.0}, {full, 0.3 * full}},
      simx::SpeedProfile{{0.0, 2000.0}, {full, 0.3 * full}},
  };
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("tasks", "2048", "tasks (particles) per time step");
  flags.define("steps", "12", "number of time steps");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }
  const auto tasks = flags.get_count<std::size_t>("tasks");
  const auto steps = flags.get_count<std::size_t>("steps");

  std::cout << "time-stepping run: " << steps << " steps x " << tasks
            << " tasks on 4 workers; workers 2+3 drop to 30% speed at t = 2000 s\n\n";

  support::Table table({"technique", "makespan [s]", "speedup", "avg wasted [s]",
                        "healthy:perturbed task ratio"});
  for (const dls::Kind kind : {dls::Kind::kStatic, dls::Kind::kWF, dls::Kind::kFAC2,
                               dls::Kind::kAWF, dls::Kind::kAWFB, dls::Kind::kAF}) {
    const mw::Config cfg = make_config(kind, tasks, steps);
    const mw::RunResult r = mw::run_simulation(cfg);
    const mw::Metrics m = mw::compute_metrics(r, cfg);
    const double healthy = static_cast<double>(r.workers[0].tasks + r.workers[1].tasks);
    const double perturbed = static_cast<double>(r.workers[2].tasks + r.workers[3].tasks);
    table.add_row({dls::to_string(kind), support::fmt(m.makespan, 0),
                   support::fmt(m.speedup, 2), support::fmt(m.avg_wasted_time, 1),
                   support::fmt(healthy / perturbed, 2)});
  }
  table.print(std::cout);
  std::cout << "\nreading guide: before t = 2000 the platform is homogeneous (ratio ~1);\n"
               "after the slowdown the ideal split is 1:0.3 (ratio ~3.3).  STAT and\n"
               "equal-weight WF keep splitting evenly and stall each step on the slow\n"
               "workers; the batch/step-adaptive techniques shift work to the healthy\n"
               "pair and finish markedly earlier.\n";
  return EXIT_SUCCESS;
}
