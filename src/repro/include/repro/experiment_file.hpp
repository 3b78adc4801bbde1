#pragma once

#include <string>
#include <string_view>

#include "mw/config.hpp"

namespace repro {

/// Textual experiment description -- all three sides of paper Figure
/// 2: application, system (host speeds and profiles, network latency
/// and bandwidth) and execution information.  mw builds its simulated
/// platform from these keys alone.  Format (one `key value` pair per
/// line, '#' comments):
///
///   technique FAC2            # STAT SS CSS FSC GSS TSS FAC FAC2 BOLD ...
///   tasks     8192
///   workers   8
///   workload  exponential:1.0 # see workload::from_spec
///   h         0.5
///   mu        1.0             # defaults to the workload mean
///   sigma     1.0             # defaults to the workload stddev
///   timesteps 1
///   seed      42
///   overhead  analytic        # or: simulated
///   latency   1e-12
///   bandwidth 1e21
///   css_chunk 0
///   gss_min   1
///   rand48    false
///   replicas  1               # > 1 batches independent seeds (exec::BatchRunner)
///   seed_stride 1             # replica r runs with seed + seed_stride * r
///   threads   0               # pool width for the replicas (0 = hardware)
///   backend   mw              # execution vehicle: mw | hagerup | runtime
///
/// A `sweep <key> <v1> <v2> ...` line is a grid directive, not an
/// experiment key: sweep::parse_grid expands the cartesian product of
/// all sweep lines into one experiment per cell (tools/dls_sweep).
/// parse_experiment_spec rejects it with a pointer at `dls_sweep -`
/// (which runs plain files and grids alike) so a grid spec handed to
/// the single-experiment parser fails loudly instead of dropping an
/// axis.
///
/// System-information extensions (the heterogeneity/resilience side of
/// the Config space; all optional):
///
///   host_speed    1e9             # reference PE speed [flops/s]
///   request_bytes 64
///   reply_bytes   64
///   speeds        1,0.5,2         # per-worker relative speed factors
///   weights       1,1,2           # per-worker WF weights (dls::Params)
///   failures      inf,3.5,inf     # per-worker fail-stop times [s]
///   profile1      0:1e9,5:0,10:1e9  # piecewise speed of worker 1 (t:flops,...)
///
/// `speeds`/`failures` need one comma-separated entry per worker.  A
/// `profile<i>` line gives worker i a piecewise-constant absolute speed
/// (simx::SpeedProfile); workers without a profile line keep their
/// constant speed host_speed * factor.
///
/// `workers` and `tasks` are capped, because a run's memory grows with
/// both and a count far past what any machine holds would otherwise be
/// run as is, until the allocation fails or the process is killed.
/// Both caps keep one run near 4 GiB at the memory measured per unit
/// (see kMaxWorkers and kMaxTasks); a value above a cap is a parse
/// error naming the line.
///
/// A parsed experiment: the simulation Config plus the execution
/// dimensions that live outside a single run.
struct ExperimentSpec {
  mw::Config config;
  std::size_t replicas = 1;           ///< replica r runs with seed + seed_stride * r
  std::uint64_t seed_stride = 1;      ///< seed distance between replicas
  unsigned threads = 0;
  /// Execution vehicle the experiment runs on (exec::backend_names();
  /// "mw" is the reference message-passing simulator).
  std::string backend = "mw";
};

/// Largest `workers` value.  An mw run keeps about 2 KiB per simulated
/// worker (peak RSS of a `tasks = workers` SS run grew 2.0 KiB per
/// worker from 8192 to 65536 workers; GCC 12, x86-64), so 2^21 workers
/// cost about 4 GiB -- 2048 times the 1024-worker cells of the
/// reproduced experiments.
inline constexpr std::size_t kMaxWorkers = std::size_t{1} << 21;

/// Largest `tasks` value.  A replica's step-0 draw costs 16 bytes per
/// task when mw and hagerup share it (the times and the running sums;
/// peak RSS of an mw + hagerup cell grew 16 B per task from 2^21 to
/// 2^23 tasks), so 2^28 tasks cost about 4 GiB -- 512 times the 2^19
/// tasks of the largest reproduced experiment.
inline constexpr std::size_t kMaxTasks = std::size_t{1} << 28;

/// Parse the format described above.  Unknown keys are an error (a
/// typo must not silently change an experiment).  Throws
/// std::invalid_argument naming the offending line (number and text).
[[nodiscard]] ExperimentSpec parse_experiment_spec(std::string_view text);

/// Render `spec` in the textual format above, such that
/// parse_experiment_spec(serialize_experiment_spec(spec)) describes the
/// identical experiment (doubles use shortest round-trip formatting;
/// keys at their defaults are omitted).  This is how check violations
/// become replayable experiment files.  Throws std::invalid_argument
/// for specs the format cannot express (no workload, or a workload
/// with no from_spec form).
[[nodiscard]] std::string serialize_experiment_spec(const ExperimentSpec& spec);

}  // namespace repro
