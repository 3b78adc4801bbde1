#include "workloads.hpp"

#include <stdexcept>

#include "mw/batch.hpp"

// The execution backend `runtime` appears in no workload on purpose: it
// runs wall-clock native threads (one per simulated worker, so a
// 1024-worker cell would oversubscribe the box and measure the OS
// scheduler), and its records are not byte-reproducible, so its outputs
// could not be checked for correctness.

namespace perfbench {
namespace {

std::string seed_line(std::uint64_t seed, std::uint64_t salt) {
  return "seed " + std::to_string(mw::derive_cell_seed(seed, salt)) + "\n";
}

// ss_serve -- every task is its own chunk, so the mw serve loop and the
// simx event queue, mailboxes and coroutines do almost all the work;
// task generation and record I/O are negligible.  The worker axis also
// exposes per-actor setup.
Workload ss_serve(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "ss_serve";
  w.spec = "technique SS\n";
  w.spec += smoke ? "tasks 8192\n" : "tasks 524288\n";
  w.spec += "workload exponential:1\nh 0.5\n";
  w.spec += seed_line(seed, 1);
  w.spec += smoke ? "replicas 1\n" : "replicas 2\n";
  w.spec += "sweep workers 64 256 1024\n";
  return w;
}

// bold_n524288 -- the paper's Table III / Figure 8 slice on both
// simulators.  Each run issues at most ~2.6k chunks against 524k task
// draws, so task-time generation and prefix sums dominate while simx
// sits nearly idle: the workload that bypasses any event-core change,
// and the only one that runs hagerup (on the same seeds as mw).
Workload bold_n524288(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "bold_n524288";
  w.spec = "workload exponential:1\n";
  w.spec += smoke ? "tasks 8192\n" : "tasks 524288\n";
  w.spec += "h 0.5\nmu 1\nsigma 1\n";
  w.spec += seed_line(seed, 2);
  w.spec += smoke ? "replicas 1\n" : "replicas 2\n";
  w.spec += "sweep technique STAT FSC GSS TSS FAC FAC2 BOLD\n";
  w.spec += "sweep workers 8 64 1024\n";
  w.spec += "sweep backend mw hagerup\n";
  return w;
}

// grid_resume -- 2000 tiny one-replica cells, so per-record work
// (expand, render, append, commit) has its largest share of any
// workload: about 30% of the write phase in the traced run, while
// simulation (measure) still takes about 70%.  The read phase does what --resume and
// merge do (scan + validate both shard files, then merge): the same
// sweep layer run the other way round, so a render gain that slows
// scanning shows.
Workload grid_resume(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "grid_resume";
  w.spec = "workload exponential:1\ntasks 512\nh 0.5\nreplicas 1\n";
  w.spec += "sweep technique SS GSS TSS FAC2 BOLD\n";
  w.spec += "sweep workers 4 8 16 32\n";
  w.spec += "sweep seed";
  const std::uint64_t seeds = smoke ? 3 : 100;
  for (std::uint64_t i = 0; i < seeds; ++i) {
    w.spec += ' ';
    w.spec += std::to_string(mw::derive_cell_seed(seed, 1000 + i));
  }
  w.spec += "\n";
  w.shards = 2;
  return w;
}

// dist (leases, heartbeats, merge) and net (framing, checksummed FETCH
// streaming) have no end-to-end workload of their own: a loopback
// workload (this grid through dist::Coordinator and two `dls_sweep
// work --connect` processes) swung 30% in wall time between runs of
// the same code on a shared host, beyond any usable bound.  Every
// traced run (--trace 1) instead serves its own workload's grid that
// way once and checks its output (traced.cpp).

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed, bool smoke) {
  if (name == "ss_serve") return ss_serve(seed, smoke);
  if (name == "bold_n524288") return bold_n524288(seed, smoke);
  if (name == "grid_resume") return grid_resume(seed, smoke);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
