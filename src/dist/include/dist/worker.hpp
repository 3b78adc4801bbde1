#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>

#include "dist/protocol.hpp"
#include "net/transport.hpp"

namespace dist {

/// One worker of a distributed sweep (`dls_sweep work`).
///
/// Every worker speaks the same framed dialect over a stream socket:
/// it sends HELLO (protocol version + token), takes its grid from the
/// SPEC reply, sends READY, then serves LEASE messages until QUIT or
/// link loss.  Each lease runs one stripe of the grid through
/// sweep::SweepRunner (stripe identity = shard identity, so the
/// records are bitwise the ones a standalone `--shard stripe/stripes`
/// run would produce), streaming records into the attempt's temp file
/// via sweep::ShardWriter and publishing the stripe file atomically on
/// completion -- the DONE message is only sent after the rename, so a
/// death between the two leaves a complete stripe for the coordinator
/// to adopt (shared disk) or re-fetch (remote).  Prior attempts named
/// in the lease are scanned through sweep::scan_records/merge_records
/// first: their surviving records are carried forward (and
/// cross-attempt conflicts throw -- records are deterministic, a
/// reclaimed stripe must reproduce the dead worker's bytes), so a
/// retry only computes what the dead worker never flushed.  A FETCH
/// streams a published stripe back as checksummed DATA chunks.
///
/// A dedicated thread heartbeats `HB <computed_total>` every interval
/// regardless of how long a cell takes; only death (or chaos-induced
/// hanging) silences it.
///
/// The link is the only thing that depends on where the worker runs:
/// a local worker serves the socket `dls_sweep coordinate` hands it as
/// stdin, in the coordinator's workdir; a remote worker dials
/// `--connect host:port` and keeps its stripes in its own scratch dir.
struct WorkerOptions {
  std::string workdir;    ///< shard-file directory (the worker's own with --connect)
  unsigned threads = 1;   ///< SweepRunner pool width per lease
  std::chrono::milliseconds heartbeat_interval{200};
  /// Fault injection: once the lifetime computed-cell count reaches
  /// `after_cells`, die (kill), tear the record stream then die
  /// (truncate), silently freeze (hang), or die mid-FETCH-reply
  /// (fetchcut).  See protocol.hpp.
  std::optional<ChaosKill> chaos;

  /// "host:port" of a `dls_sweep serve` coordinator.  Empty = serve
  /// the socket on stdin (a worker forked by `dls_sweep coordinate`).
  std::string connect;
  std::string token;  ///< HELLO auth token (must match the coordinator's)
  /// Give up and exit 1 when the coordinator sends nothing (not even
  /// PING) for this long while the worker waits for SPEC or a lease
  /// -- the half-open-TCP guard.  The coordinator pings every idle
  /// worker each heartbeat interval, so this only fires when the link
  /// is truly wedged.
  std::chrono::milliseconds idle_timeout{10000};
  std::size_t connect_attempts = 40;
  std::chrono::milliseconds connect_backoff{250};
};

/// Serve the protocol until QUIT or link loss: on the stdin socket, or
/// over a TCP connection to `options.connect`.  Returns the process
/// exit code (0 = orderly shutdown; 1 = unrecoverable worker error
/// after reporting what it could).
[[nodiscard]] int run_worker(const WorkerOptions& options);

/// The link-independent core, exposed for tests that drive a worker
/// over a shim transport (e.g. the idle-timeout regression test).
[[nodiscard]] int run_worker_on_transport(const WorkerOptions& options,
                                          net::Transport& transport);

}  // namespace dist
