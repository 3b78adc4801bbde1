#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Loopback worker processes of a distributed run, one thread each.
inline constexpr std::size_t kDistWorkers = 2;
/// Lease stripes (the coordinator caps them at the grid's cell count):
/// enough that the lease-time tail of a 2000-cell grid has more than 10
/// samples beyond it.
inline constexpr std::size_t kDistStripes = 64;

/// One distributed run: dist::Coordinator in serve mode on
/// 127.0.0.1:0, fed by kDistWorkers `dls_sweep work --connect`
/// processes this benchmark spawns.  Times come from
/// CoordinatorOptions::on_event timestamps.
struct DistRun {
  std::string out_path;                ///< the merged output file
  std::size_t merged_bytes = 0;
  std::vector<double> ready_ms;        ///< spawn until READY, per worker
  std::vector<double> lease_ms;        ///< lease until done, per stripe
  std::vector<double> fetch_ms;        ///< FETCH issued until done, per stripe
  double merge_ms = 0.0;               ///< last done until complete
  std::size_t leases = 0;
  std::size_t reclaims = 0;
  std::size_t retries = 0;
  std::size_t workers_lost = 0;
  double worker_peak_rss_mb = 0.0;     ///< largest worker process
};

/// Run `workload`'s grid distributed, using `dir` (emptied first) for
/// the spec, the coordinator work directory, the workers' scratch and
/// the merged output.  Every spawned worker is waited for, also when
/// the run throws.
[[nodiscard]] DistRun run_distributed(const Workload& workload, const std::string& dir);

}  // namespace perfbench
