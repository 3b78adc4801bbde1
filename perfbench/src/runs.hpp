#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The seed the committed digests (digests.txt) are taken at.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string dir;  ///< scratch directory for shard files, traces, dist runs
};

/// Set-up and the read phase take from 0.04 ms to 80 ms, so one sample
/// per pass would mostly measure the cache state the write phase left.
/// A pass repeats each back to back, at least kMinRepeats times and for
/// at least kMinRepeatS seconds, and reports the mean.
inline constexpr std::size_t kMinRepeats = 2;
inline constexpr double kMinRepeatS = 0.02;

/// One in-process pass of the end-to-end path at pool width 2: set-up
/// (parse the spec, construct one SweepRunner per shard, start the
/// pool), the write phase (per shard: open a ShardWriter, run
/// SweepRunner::run into it, commit -- until the last record is
/// durable), and the read phase (scan + validate every shard file, then
/// merge).  Cell expansion and the BatchRunner are lazy inside
/// SweepRunner::run, so they count in the write phase.
struct InProcessRep {
  double setup_s = 0.0;  ///< mean of the repeated set-ups
  double wall_s = 0.0;
  double read_s = 0.0;  ///< mean of the repeated read phases
  /// Per shard: the gaps between its consecutive committed records; the
  /// first is measured from the start of that shard's write.
  std::vector<std::vector<double>> shard_gaps_ms;
  std::vector<std::string> records;  ///< merged output
};
[[nodiscard]] InProcessRep run_in_process(const Workload& workload, const std::string& dir);

/// Check reference records against the committed digest when running
/// at the default seed and full scale; prints the digest either way.
void check_digest(const Options& options, const std::vector<std::string>& records,
                  Report& report);

/// The end-to-end run (--trace 0) and the traced serial run
/// (--trace 1).  Both fill `report`.
void run_end_to_end(const Options& options, Report& report);
void run_traced(const Options& options, Report& report);

}  // namespace perfbench
