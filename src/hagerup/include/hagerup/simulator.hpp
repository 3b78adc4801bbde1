#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dls/params.hpp"
#include "dls/technique.hpp"
#include "workload/task_times.hpp"

namespace hagerup {

/// Replication of the task-allocation simulator of the BOLD publication
/// (Hagerup 1997), which produced the "values from original publication"
/// side of the paper's Figures 5-8.
///
/// The simulator is direct (no message passing): each of the p workers
/// is a (next-free-time) entry in a priority queue; when a worker
/// becomes free the master immediately computes the next chunk with the
/// configured DLS technique and the worker executes it.  Task execution
/// times are drawn with the replicated erand48/nrand48 generator family
/// ("Task execution times are generated with the aid of the random
/// number generators erand48 and nrand48", paper Section III-B).
///
/// Scheduling overhead: "It was assumed that every scheduling operation
/// takes a fixed amount of time (parameter h).  This scheduling
/// overhead for each scheduling operation was added directly to the
/// simulation times."  With charge_overhead_inline (default), each
/// allocation occupies the requesting worker for h seconds before the
/// chunk executes; the alternative adds h * chunks / p to the average
/// wasted time after the run (the accounting the paper applies to its
/// SimGrid-MSG experiments), provided for the ablation bench.
struct Config {
  dls::Kind technique = dls::Kind::kSS;
  dls::Params params;  ///< p/n forced from pes/tasks below
  std::size_t pes = 1;
  std::size_t tasks = 1;
  std::shared_ptr<const workload::TaskTimeGenerator> workload;
  std::uint64_t seed = 42;
  bool use_rand48 = true;
  bool charge_overhead_inline = true;
  /// Record the full per-chunk log in the result (exec::BackendRun
  /// carries it to compare scheduling decisions across simulators).
  bool record_chunk_log = false;
};

struct RunResult {
  double makespan = 0.0;
  double total_work = 0.0;            ///< sum of executed task times
  std::size_t chunk_count = 0;
  std::vector<double> compute_time;   ///< per worker
  std::vector<std::size_t> chunks;    ///< per worker
  /// Average wasted time of the run: mean over workers of
  /// (makespan - compute time), which equals idle + overhead per
  /// worker when overhead is charged inline; plus h*chunks/p otherwise.
  double avg_wasted_time = 0.0;
  /// Filled if Config::record_chunk_log, in allocation order.  Tasks
  /// are served sequentially from the front of [0, n), so `first` is
  /// the running task index at allocation time.
  std::vector<dls::ChunkRecord> chunk_log;
};

/// The parts of a draw run() reads: the task times (each chunk sums its
/// own) and their total (RunResult::total_work).
inline constexpr workload::DrawParts kDrawParts =
    workload::DrawParts::kTimes | workload::DrawParts::kTotal;

/// Run one simulation.  Deterministic in Config (including seed):
/// draws the task times (config.tasks draws of config.workload from
/// workload::make_source(seed, use_rand48)) and runs the overload below
/// on them.
[[nodiscard]] RunResult run(const Config& config);

/// Run on a draw made by the caller: `draw` must hold the times and
/// total (kDrawParts) of config.tasks tasks, and
/// config.workload/seed/use_rand48 are not consulted.
/// exec::BatchRunner draws a replica once and runs every vehicle of a
/// science cell on that one draw.
[[nodiscard]] RunResult run(const Config& config, const workload::TaskDraw& draw);

}  // namespace hagerup
