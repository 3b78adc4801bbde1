#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "dls/params.hpp"
#include "dls/technique.hpp"

namespace runtime {

/// Per-loop execution statistics of the native executor.
struct LoopStats {
  std::size_t chunks = 0;
  double wall_seconds = 0.0;
  std::vector<std::size_t> tasks_per_thread;
  std::vector<std::size_t> chunks_per_thread;
  std::vector<double> busy_seconds_per_thread;
  /// Filled if Options::record_chunk_log: every dispatched chunk, in
  /// dispatch order, with `pe` the thread and both times 0 (check
  /// verifies coverage invariants on it through exec::BackendRun).
  std::vector<dls::ChunkRecord> chunk_log;
};

/// Native (non-simulated) self-scheduling loop executor: the deployment
/// form of the verified DLS techniques, in the spirit of OpenMP's
/// `schedule(runtime)` runtimes.
///
/// Worker threads request chunks of the iteration space [0, n) from a
/// shared dispatcher guarded by a mutex; the dispatcher consults the
/// configured dls::Technique, and measured chunk execution times are
/// fed back so the adaptive techniques (AWF-*, AF) work natively too.
///
/// The executor is reusable across loops: re-running with the same
/// iteration count starts a new *time step* (adaptive state persists,
/// exactly as in the simulated master-worker application); changing the
/// iteration count rebuilds the technique from scratch.
class DlsLoopExecutor {
 public:
  struct Options {
    dls::Kind technique = dls::Kind::kFAC2;
    /// Table I parameters; p is forced to the thread count and n to the
    /// loop's iteration count.
    dls::Params params;
    /// 0 = hardware concurrency.
    unsigned threads = 0;
    /// Record every dispatched chunk in LoopStats::chunk_log.
    bool record_chunk_log = false;
  };

  explicit DlsLoopExecutor(Options options);
  ~DlsLoopExecutor();
  DlsLoopExecutor(const DlsLoopExecutor&) = delete;
  DlsLoopExecutor& operator=(const DlsLoopExecutor&) = delete;

  /// Execute `body(begin, end)` for consecutive chunks covering [0, n).
  /// Each chunk runs on exactly one thread; chunks never overlap.  The
  /// first exception thrown by any chunk aborts the remaining
  /// dispatches (already-running chunks finish) and is rethrown here.
  LoopStats run(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body);

  /// Convenience: per-index body.
  LoopStats run_indexed(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Drop the current technique instance so the next run() starts from
  /// fresh scheduling state even with an unchanged n.  This is the
  /// boundary between independent *replicas* (exec::Backend resets
  /// between them), as opposed to the persisted-adaptive-state timestep
  /// semantics of consecutive run() calls.
  void reset();

  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] dls::Kind technique() const { return options_.technique; }
  /// Number of run() calls served by the current technique instance:
  /// increments while adaptive state persists (same n), resets to 1
  /// when a changed n rebuilds the technique.  0 before the first run.
  [[nodiscard]] std::size_t loop_count() const { return loop_count_; }

 private:
  Options options_;
  unsigned threads_;
  std::unique_ptr<dls::Technique> technique_;
  std::size_t technique_n_ = 0;
  std::size_t loop_count_ = 0;
};

/// One-shot convenience wrapper.
LoopStats parallel_for_dls(dls::Kind technique, std::size_t n,
                           const std::function<void(std::size_t)>& body, unsigned threads = 0,
                           const dls::Params& params = {});

}  // namespace runtime
