#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "sweep/grid.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One replica the serial pass measured, kept for the attribution
/// replays (same config, same seed).
struct ReplicaRun {
  std::size_t cell = 0;  ///< full grid cell index
  std::string backend;
  mw::Config config;     ///< seed already set for this replica
  double chunks = 0.0;   ///< Measured::chunks
};

struct SerialPass {
  std::vector<std::string> records;  ///< merged records, canonical order
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<ReplicaRun> replicas;  ///< filled when asked for
};

/// The width-1 decomposition of the sweep path: the same public calls
/// SweepRunner and `dls_sweep --resume` / `merge` make, one at a time,
/// each inside a span of the caller's Tracer.  Per cell: sweep::cell +
/// sweep::batch_job, Backend::measure per replica, stats::summarize,
/// RecordRenderer::render, ShardWriter::append_line; per shard file:
/// ShardWriter::commit; then scan_records + validate_records_for_grid
/// per file and merge_records.  Its records are the reference the
/// parallel runs are checked against, byte for byte.
class SerialRunner {
 public:
  /// Parses the workload's grid; shard files go to `dir`.
  SerialRunner(const Workload& workload, std::string dir);

  [[nodiscard]] const sweep::Grid& grid() const { return grid_; }
  [[nodiscard]] SerialPass run(Tracer& tracer, bool keep_replicas);
  /// The cached backend instance for `name` (engines stay warm across
  /// passes, as in exec::BatchRunner's slot caches).
  [[nodiscard]] exec::Backend& backend(const std::string& name);

 private:
  std::size_t shards_;
  sweep::Grid grid_;
  std::string dir_;
  std::map<std::string, std::unique_ptr<exec::Backend>, std::less<>> backends_;
};

/// Read the complete records of a sweep output file, checking it the
/// way `dls_sweep --resume` does (scan_records, then
/// validate_records_for_grid).  Throws on a malformed file.
[[nodiscard]] std::vector<std::string> scan_and_validate(const sweep::Grid& grid,
                                                         const std::string& path);

}  // namespace perfbench
