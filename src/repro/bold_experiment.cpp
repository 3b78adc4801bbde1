#include "repro/bold_experiment.hpp"

#include <stdexcept>

#include "exec/batch.hpp"
#include "workload/task_times.hpp"

namespace repro {
namespace {

/// The per-run seed stride of the simx side (any odd constant would do;
/// kept since the first reproduction runs so results stay comparable).
constexpr std::uint64_t kSimSeedStride = 104729;

/// The per-run seed stride of the original (hagerup) side.
constexpr std::uint64_t kOriginalSeedStride = 7919;

/// The parameters both sides of a cell share: technique, p, n, the
/// BOLD parameters and the exponential workload.
mw::Config cell_config(const BoldOptions& options, dls::Kind technique, std::size_t pes) {
  mw::Config cfg;
  cfg.technique = technique;
  cfg.workers = pes;
  cfg.tasks = options.tasks;
  cfg.params.h = options.h;
  cfg.params.mu = options.mu;
  cfg.params.sigma = options.sigma;
  cfg.workload = workload::exponential(options.mu);
  return cfg;
}

exec::BatchJob make_original_job(const BoldOptions& options, dls::Kind technique,
                                 std::size_t pes) {
  exec::BatchJob job;
  job.config = cell_config(options, technique, pes);
  job.config.use_rand48 = true;  // the generator family of the BOLD publication
  // Per-worker analytic overhead accounting (the hagerup backend adds
  // h * chunks to the wasted-time sum), matching the accounting the
  // paper applies to its SimGrid-MSG side.  The alternative --
  // charging h inline on the worker timeline -- leaves a systematic
  // 20-40% gap on the long-tailed techniques (GSS) because inline
  // overhead overlaps idle time; the paper's reported <=15% bounds
  // imply the original simulator accounted overhead the way we do
  // here.  The inline variant is studied in bench_ablation_overhead.
  job.config.seed = options.seed_original;
  job.replicas = options.runs;
  job.seed_stride = kOriginalSeedStride;
  job.backend = "hagerup";
  return job;
}

exec::BatchJob make_sim_job(const BoldOptions& options, dls::Kind technique, std::size_t pes) {
  exec::BatchJob job;
  job.config = cell_config(options, technique, pes);
  job.config.overhead_mode = mw::OverheadMode::kAnalytic;  // paper Section III-B
  // Null network: "bandwidth to a very high value and the latency to a
  // very low value" -- defaults of mw::Config already encode this.
  job.config.seed = options.seed_simgrid;
  job.replicas = options.runs;
  job.seed_stride = kSimSeedStride;
  job.backend = options.sim_backend;
  return job;
}

}  // namespace

BoldGrid bold_grid() { return {}; }

support::Table bold_grid_table() {
  const BoldGrid grid = bold_grid();
  support::Table table({"Number of tasks", "Number of PEs", "Figure"});
  const char* figures[] = {"Figure 5", "Figure 6", "Figure 7", "Figure 8"};
  for (std::size_t i = 0; i < grid.tasks.size(); ++i) {
    std::string pes;
    for (std::size_t j = 0; j < grid.pes.size(); ++j) {
      if (j > 0) pes += "; ";
      pes += std::to_string(grid.pes[j]);
    }
    table.add_row({std::to_string(grid.tasks[i]), pes, figures[i]});
  }
  return table;
}

std::vector<BoldCell> run_bold_experiment(const BoldOptions& options) {
  if (options.runs == 0) throw std::invalid_argument("BoldOptions.runs must be >= 1");

  // Both sides route through the batched runner: all cells of the
  // grid become one flattened job list (per cell, the original job
  // then the simulation job), so threads stay busy across cell
  // boundaries and per-thread engines are reused.
  std::vector<exec::BatchJob> jobs;
  for (const dls::Kind technique : options.techniques) {
    for (const std::size_t pes : options.pes) {
      jobs.push_back(make_original_job(options, technique, pes));
      jobs.push_back(make_sim_job(options, technique, pes));
    }
  }
  exec::BatchRunner::Options runner_options;
  runner_options.threads = options.threads;
  const exec::BatchRunner runner(runner_options);
  const std::vector<exec::BatchResult> results = runner.run(jobs);

  std::vector<BoldCell> cells;
  std::size_t job_index = 0;
  for (const dls::Kind technique : options.techniques) {
    for (const std::size_t pes : options.pes) {
      const stats::Summary& original = results[job_index++].avg_wasted_time;
      const stats::Summary& simgrid = results[job_index++].avg_wasted_time;
      BoldCell cell;
      cell.technique = technique;
      cell.pes = pes;
      cell.original = original.mean;
      cell.original_stddev = original.stddev;
      cell.simgrid = simgrid.mean;
      cell.simgrid_stddev = simgrid.stddev;
      cell.discrepancy = stats::discrepancy(cell.original, cell.simgrid);
      cells.push_back(cell);
    }
  }
  return cells;
}

std::string bold_sim_spec_text(const BoldOptions& options) {
  // Mirrors make_sim_job: the base keys are the job fields, the axes
  // are the grid dimensions.  mu/sigma are spelled out because the
  // BOLD parameters coincide with the workload moments by construction,
  // not by default.
  std::string text;
  text += "# simulation side of the BOLD reproduction grid (paper Figures 5-8)\n";
  text += "# generated by repro::bold_sim_spec_text; run with: dls_sweep <this file>\n";
  text += "workload exponential:" + support::fmt_shortest(options.mu) + "\n";
  text += "tasks " + std::to_string(options.tasks) + "\n";
  text += "h " + support::fmt_shortest(options.h) + "\n";
  text += "mu " + support::fmt_shortest(options.mu) + "\n";
  text += "sigma " + support::fmt_shortest(options.sigma) + "\n";
  text += "seed " + std::to_string(options.seed_simgrid) + "\n";
  text += "replicas " + std::to_string(options.runs) + "\n";
  text += "seed_stride " + std::to_string(kSimSeedStride) + "\n";
  if (options.sim_backend != "mw") text += "backend " + options.sim_backend + "\n";
  text += "sweep technique";
  for (const dls::Kind technique : options.techniques) {
    text += ' ' + dls::to_string(technique);
  }
  text += "\nsweep workers";
  for (const std::size_t pes : options.pes) text += ' ' + std::to_string(pes);
  text += "\n";
  return text;
}

std::vector<double> bold_sim_run_series(const BoldOptions& options, dls::Kind technique,
                                        std::size_t pes) {
  exec::BatchRunner::Options batch_options;
  batch_options.threads = options.threads;
  batch_options.keep_values = true;
  const exec::BatchRunner runner(batch_options);
  return runner.run_one(make_sim_job(options, technique, pes)).wasted_values;
}

namespace {

const BoldCell& find_cell(const std::vector<BoldCell>& cells, dls::Kind technique,
                          std::size_t pes) {
  for (const BoldCell& c : cells) {
    if (c.technique == technique && c.pes == pes) return c;
  }
  throw std::invalid_argument("missing cell for " + dls::to_string(technique) + " / p=" +
                              std::to_string(pes));
}

}  // namespace

support::Table bold_values_table(const std::vector<BoldCell>& cells, const BoldOptions& options,
                                 bool original_side) {
  std::vector<std::string> header = {"PEs"};
  for (dls::Kind k : options.techniques) header.push_back(dls::to_string(k));
  support::Table table(std::move(header));
  for (std::size_t pes : options.pes) {
    std::vector<std::string> row = {std::to_string(pes)};
    for (dls::Kind k : options.techniques) {
      const BoldCell& c = find_cell(cells, k, pes);
      row.push_back(support::fmt(original_side ? c.original : c.simgrid, 2));
    }
    table.add_row(std::move(row));
  }
  return table;
}

support::Table bold_discrepancy_table(const std::vector<BoldCell>& cells,
                                      const BoldOptions& options, bool relative) {
  std::vector<std::string> header = {"PEs"};
  for (dls::Kind k : options.techniques) header.push_back(dls::to_string(k));
  support::Table table(std::move(header));
  for (std::size_t pes : options.pes) {
    std::vector<std::string> row = {std::to_string(pes)};
    for (dls::Kind k : options.techniques) {
      const BoldCell& c = find_cell(cells, k, pes);
      row.push_back(support::fmt(
          relative ? c.discrepancy.relative_percent : c.discrepancy.absolute, 2));
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace repro
