#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dls/technique.hpp"
#include "mw/config.hpp"
#include "mw/metrics.hpp"
#include "mw/result.hpp"
#include "workload/task_times.hpp"

namespace exec {

/// Uniform view of one run of any execution vehicle -- the shared
/// currency of the check invariant catalog and the cross-backend
/// experiment grids.  The chunk log is every vehicle's own
/// dls::ChunkRecord log; the range log reuses mw's type, and backends
/// without fragmentation (hagerup, runtime) emit one range per chunk.
struct BackendRun {
  std::string backend;  ///< "mw" | "hagerup" | "runtime"
  std::size_t tasks = 0;
  std::size_t timesteps = 1;
  std::size_t workers = 0;
  double makespan = 0.0;
  double total_nominal_work = 0.0;
  std::size_t chunk_count = 0;
  std::size_t tasks_reclaimed = 0;
  std::vector<mw::WorkerStats> worker_stats;
  std::vector<dls::ChunkRecord> chunk_log;
  std::vector<mw::ServedRangeEntry> range_log;
  /// Paper metrics, for backends that define them (mw only).
  std::optional<mw::Metrics> metrics;
  /// Virtual-time semantics: chunk issue times and compute times are
  /// exact simulated values (false for the native runtime, whose
  /// wall-clock numbers only support structural invariants).
  bool virtual_time = true;
};

/// The measured values every backend reports -- the per-replica
/// currency of exec::BatchRunner and the sweep records (the summary
/// columns of the reproduced experiments).
struct Measured {
  double makespan = 0.0;
  double avg_wasted_time = 0.0;
  double speedup = 0.0;
  double chunks = 0.0;
};

/// One execution vehicle behind a uniform mw::Config-shaped job spec.
///
/// A Backend instance owns reusable state (a step-0 draw,
/// mw::RunContext, a cached runtime executor), so consecutive runs on
/// the same instance reuse engines and buffers instead of reallocating
/// them.  Instances are NOT thread-safe: use one per thread
/// (exec::BatchRunner keeps a pool).
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Throws std::invalid_argument naming what the backend cannot
  /// faithfully express of `config` (e.g. hagerup with timesteps > 1).
  /// run()/measure() validate implicitly.
  virtual void validate(const mw::Config& config) const = 0;

  /// Full uniform record, chunk/range logs forced on -- the check
  /// catalog's input.
  [[nodiscard]] virtual BackendRun run(const mw::Config& config) = 0;

  /// The parts of a step-0 draw this vehicle reads: mw the running
  /// sums, hagerup the times and the total, runtime nothing (it has no
  /// task-time model).
  [[nodiscard]] virtual workload::DrawParts draw_parts() const = 0;

  /// The measured values only, without materializing logs: draws step
  /// 0 (draw_step0) with this vehicle's own draw_parts() into a reused
  /// draw and runs measure_on_draw() on it.  The runtime backend, which
  /// has no task-time model, overrides it.
  [[nodiscard]] virtual Measured measure(const mw::Config& config);

  /// measure() on step 0's draw made by the caller (see draw_step0):
  /// `step0` holds at least this vehicle's draw_parts() of
  /// config.tasks task times, and `rest` is their source, positioned
  /// right after them.  Bitwise equal to measure(config), whatever
  /// extra parts the draw holds.  The batch/sweep hot path:
  /// exec::BatchRunner draws each replica once, with the union of its
  /// vehicles' parts, and measures every vehicle of a science cell on
  /// it.  The runtime backend ignores the draw.
  [[nodiscard]] virtual Measured measure_on_draw(const mw::Config& config,
                                                 const workload::TaskDraw& step0,
                                                 workload::RandomSource& rest) = 0;

  /// Makespans/chunk times are exact simulated values (false for the
  /// native runtime, which measures wall clock).
  [[nodiscard]] virtual bool virtual_time() const = 0;

 protected:
  /// Step 0's draw of the last measure()/run() (this vehicle's parts
  /// only); its capacity survives across calls.
  workload::TaskDraw step0_;
};

/// Construction knobs that only apply to specific backends.
struct BackendOptions {
  /// runtime: cap the executed iteration count (0 = run the full n).
  /// check's fuzzer caps at 2048 to keep native runs fast.
  std::size_t runtime_task_cap = 0;
  /// runtime: cap the spawned thread count (0 = exactly `workers`).
  unsigned runtime_max_threads = 0;
};

/// Draw step 0 of `config` (config.tasks draws of config.workload from
/// workload::make_source(seed, use_rand48)) into `draw`, filling
/// `parts` in one pass and reusing its capacity, and return the source
/// positioned right after the draw -- the inputs of
/// Backend::measure_on_draw.  Throws std::invalid_argument when
/// config.workload is unset.
[[nodiscard]] std::unique_ptr<workload::RandomSource> draw_step0(const mw::Config& config,
                                                                 workload::DrawParts parts,
                                                                 workload::TaskDraw& draw);

/// The known backend names, in canonical (lexicographic) order:
/// "hagerup", "mw", "runtime".
[[nodiscard]] const std::vector<std::string>& backend_names();
[[nodiscard]] bool is_backend_name(std::string_view name);

/// Factory.  Throws std::invalid_argument listing the known names for
/// an unknown `name`.
[[nodiscard]] std::unique_ptr<Backend> make_backend(std::string_view name,
                                                    const BackendOptions& options = {});

/// Whether the named backend has virtual-time semantics
/// (Backend::virtual_time()).  The single classification both
/// exec::BatchRunner (which defers wall-clock jobs to a serial phase)
/// and sweep::SweepRunner (which segments its worklist at wall-clock
/// cells) key off -- they must never diverge, or the sweep's in-order
/// committer stalls buffering behind a job the batch deferred.
[[nodiscard]] bool backend_is_virtual(std::string_view name);

}  // namespace exec
