#pragma once

#include <memory>

#include "mw/config.hpp"
#include "mw/result.hpp"
#include "workload/task_times.hpp"

namespace mw {

/// Reusable scratch state for run_simulation.
///
/// Holds the simulation engine (platform, event-heap storage), the
/// draw of timesteps after the first, and every bookkeeping vector of
/// the serve loop.  When consecutive runs share the platform shape
/// (workers, speeds, network parameters), the engine and its platform
/// are reused instead of rebuilt, and after the first run the serve
/// loop reaches a steady state with no heap allocation per chunk.
///
/// Not thread-safe: use one RunContext per thread (the exec layer's
/// mw backend holds one per pooled instance).
class RunContext {
 public:
  RunContext();
  ~RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Opaque implementation (defined in simulation.cpp).
  struct Impl;

 private:
  friend RunResult run_simulation(const Config& config, RunContext& context,
                                  const workload::TaskDraw& step0, workload::RandomSource& rest);
  std::unique_ptr<Impl> impl_;
};

/// Throws std::invalid_argument unless `config` describes a runnable
/// simulation: at least one worker, task and timestep, a workload,
/// positive host speed, speed factors and link bandwidth, a
/// non-negative latency and failure times, valid speed profiles, and
/// per-worker lists of one entry per worker.  run_simulation checks
/// it first; repro::parse_experiment_spec checks it last, so an
/// experiment file that could not run is a parse error.
void validate(const Config& config);

/// Execute one master-worker scheduling simulation (paper Figure 1):
///
///   * a star platform is built from the Config's system information;
///   * one master actor and `workers` worker actors are spawned;
///   * idle workers send work-request messages; the master computes the
///     next chunk size with the configured DLS technique and replies
///     with the chunk's aggregate nominal execution time;
///   * on exhaustion the master sends finalization messages and the
///     simulation ends.
///
/// Deterministic: the same Config (including seed) always produces the
/// same result, with or without a reused RunContext.  Throws on invalid
/// configurations.
[[nodiscard]] RunResult run_simulation(const Config& config);

/// The parts of a step-0 draw run_simulation reads: the running sums
/// (chunks are served from them, and the step-0 total is prefix[n]).
inline constexpr workload::DrawParts kDrawParts = workload::DrawParts::kPrefix;

/// Run on step 0's draw made by the caller, reusing `context`'s engine
/// and buffers across calls -- the fast path for parameter sweeps.
/// `step0` must hold the running sums (kDrawParts) of config.tasks
/// task times, and `rest` is the source they were drawn from,
/// positioned right after them -- timesteps after the first keep
/// drawing from it (config.seed and use_rand48 are not consulted;
/// exec::draw_step0 makes both inputs).  exec::BatchRunner draws a
/// replica once and runs every vehicle of a science cell on that one
/// draw.  `step0` is read throughout step 0, so it must outlive the
/// call.
RunResult run_simulation(const Config& config, RunContext& context,
                         const workload::TaskDraw& step0, workload::RandomSource& rest);

}  // namespace mw
