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
/// The worker announces itself (READY on pipes; HELLO then READY on
/// sockets), then serves LEASE messages until QUIT or link loss.  Each
/// lease runs one stripe of the grid through sweep::SweepRunner
/// (stripe identity = shard identity, so the records are bitwise the
/// ones a standalone `--shard stripe/stripes` run would produce),
/// streaming records into the attempt's temp file via
/// sweep::ShardWriter and publishing the stripe file atomically on
/// completion -- the DONE message is only sent after the rename, so a
/// death between the two leaves a complete stripe for the coordinator
/// to adopt (pipes) or re-fetch (sockets).  Prior attempts named in
/// the lease are scanned through sweep::scan_records/merge_records
/// first: their surviving records are carried forward (and
/// cross-attempt conflicts throw -- records are deterministic, a
/// reclaimed stripe must reproduce the dead worker's bytes), so a
/// retry only computes what the dead worker never flushed.
///
/// A dedicated thread heartbeats `HB <computed_total>` every interval
/// regardless of how long a cell takes; only death (or chaos-induced
/// hanging) silences it.
///
/// Connected mode (`--connect host:port`) differs in three ways: the
/// spec arrives over the wire (SPEC after HELLO) instead of from a
/// file, the workdir is the worker's own local scratch (no shared
/// filesystem), and published stripes are streamed back on FETCH as
/// checksummed DATA chunks.
struct WorkerOptions {
  std::string spec_text;  ///< the grid spec (ignored in connect mode)
  std::string workdir;    ///< shard-file directory (local in connect mode)
  unsigned threads = 1;   ///< SweepRunner pool width per lease
  std::chrono::milliseconds heartbeat_interval{200};
  /// Fault injection: once the lifetime computed-cell count reaches
  /// `after_cells`, die (kill), tear the record stream then die
  /// (truncate), silently freeze (hang), or die mid-FETCH-reply
  /// (fetchcut).  See protocol.hpp.
  std::optional<ChaosKill> chaos;

  /// Connect mode: "host:port" of a `dls_sweep serve` coordinator.
  /// Empty = classic pipe mode on stdin/stdout.
  std::string connect;
  std::string token;  ///< HELLO auth token (must match the coordinator's)
  /// Give up and exit 1 when the coordinator sends nothing (not even
  /// PING) for this long -- the half-open-TCP guard.  The coordinator
  /// pings every heartbeat interval, so this only fires when the link
  /// is truly wedged.
  std::chrono::milliseconds idle_timeout{10000};
  std::size_t connect_attempts = 40;
  std::chrono::milliseconds connect_backoff{250};
};

/// Serve the protocol until QUIT or link loss.  Dispatches on
/// `options.connect`: pipe mode wraps stdin/stdout in a PipeTransport,
/// connect mode dials the coordinator and handshakes.  Returns the
/// process exit code (0 = orderly shutdown; 1 = unrecoverable worker
/// error after reporting what it could).
[[nodiscard]] int run_worker(const WorkerOptions& options);

/// The transport-agnostic core, exposed for tests that need to drive a
/// worker over a shim transport (e.g. the idle-timeout regression
/// test).  `fetch_on_done` selects the socket data path: keep stripe
/// files after DONE and answer FETCH with DATA chunks.  When
/// `handshake` is set, HELLO is sent first and a SPEC reply is
/// expected to supply the grid (overriding options.spec_text).
[[nodiscard]] int run_worker_on_transport(const WorkerOptions& options,
                                          net::Transport& transport, bool handshake,
                                          bool fetch_on_done);

}  // namespace dist
