#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"

namespace dist {

/// The coordinator of a distributed sweep (`dls_sweep coordinate` /
/// `dls_sweep serve`).
///
/// Two worker sources behind one supervision loop, speaking one framed
/// dialect (protocol.hpp): classic mode fork/execs local workers, each
/// on one end of an AF_UNIX socketpair as its stdin; serve mode
/// (`listen` set) opens a TCP listener and adopts remote workers as
/// they connect.  Every worker must pass the HELLO handshake (version
/// + token) and gets the grid as SPEC.  Local and remote workers differ
/// only where the deployment forces it: the data path (a shared disk
/// vs FETCH, below), termination (SIGKILL vs hangup) and the failure
/// horizon (every local worker dead vs `accept_grace` without one).
/// The coordinator leases stripes of the grid and supervises:
///
///  - liveness: any worker message resets its deadline clock; a worker
///    silent past `lease_deadline` is terminated and its lease
///    reclaimed.  The coordinator also PINGs every worker that holds
///    no lease each heartbeat interval -- a half-open TCP link never
///    EOFs, so liveness must be probed in both directions (workers
///    give up after an idle timeout; the coordinator reclaims by
///    deadline).
///  - reclamation: a reclaimed stripe's partial attempt file is
///    reused, not discarded -- the retry lease names it and the new
///    worker resumes past every record the dead worker flushed
///    (sweep::scan_records drops at most one torn final line).  If the
///    dead worker had already PUBLISHED the stripe (death between the
///    atomic rename and the DONE message), the coordinator adopts the
///    completed file instead of retrying.  Remote workers publish to
///    their own disk, so their partials are unreachable; a reclaimed
///    remote stripe recomputes from scratch.
///  - the data path: remote workers share no filesystem, so a remote
///    DONE triggers FETCH -- the stripe file streams back as ordered,
///    checksummed DATA chunks, is verified (length, FNV-1a 64, record
///    validity, stripe coverage), and only then committed locally via
///    sweep::write_lines_atomic.  The stripe stays leased until the
///    verify passes, so a death mid-stream reclaims like any other.
///    Local workers publish straight into `workdir`.
///  - retry: reclaimed stripes go back to the pending pool gated by
///    capped exponential backoff (protocol.hpp backoff_delay) and are
///    re-leased to surviving workers, up to `max_attempts` per stripe
///    -- exhaustion fails the whole run loudly.
///  - merge: once every stripe is done, all stripe files PLUS all
///    surviving partial-attempt files are merged
///    (sweep::merge_records): byte-identical duplicates collapse and
///    any reclaimed-stripe record that differs from a first-attempt
///    record aborts the run -- so the merged output of a sweep that
///    lost k of n workers is bitwise identical to an uninterrupted
///    serial run, by construction and by check, local or remote.
///
/// Every decision is appended to a lease-event log (JSONL of
/// protocol.hpp LeaseEvents) that check::check_lease_exclusivity (and
/// the transport invariants in check/net.hpp) can replay.
struct CoordinatorOptions {
  /// Grid spec file.  Its text (plus any backend line) reaches every
  /// worker as SPEC; one whose SPEC frame exceeds net::kMaxFramePayload
  /// is refused before any worker is spawned or accepted.
  std::string spec_path;
  std::string out_path;   ///< merged output (written atomically at the end)
  std::string workdir;    ///< stripe/attempt shard files + events log
  std::string events_path;  ///< lease-event log ("" = <workdir>/events.jsonl)
  std::string backend;      ///< backend line appended to the spec ("" = none)
  std::size_t workers = 2;
  std::size_t stripes = 0;  ///< lease granularity; 0 = min(4 * workers, cells)
  unsigned worker_threads = 0;  ///< forwarded SweepRunner width (0 = spec)
  std::chrono::milliseconds heartbeat_interval{200};
  std::chrono::milliseconds lease_deadline{2000};
  std::size_t max_attempts = 5;  ///< lease attempts per stripe before giving up
  std::chrono::milliseconds backoff_base{250};
  std::chrono::milliseconds backoff_cap{5000};
  std::vector<ChaosKill> chaos;  ///< fault-injection directives, by worker index
  /// Command to exec for each worker, e.g. {"./dls_sweep"}; the
  /// coordinator appends `work --dir <workdir> ...`.  Empty =
  /// /proc/self/exe (the coordinator binary itself).
  std::vector<std::string> worker_command;
  /// Observer invoked for every logged lease event (stderr narration).
  std::function<void(const LeaseEvent&)> on_event;

  /// Serve mode: "host:port" to listen on (port 0 = kernel-assigned).
  /// Empty = classic mode (fork local workers).  In serve mode
  /// `workers` only sizes the default stripe count; the actual worker
  /// set is whoever connects and HELLOs.
  std::string listen;
  std::string token;  ///< required HELLO token ("" = accept any)
  /// Serve mode failure horizon: abort when no live worker has been
  /// connected for this long (replacing classic mode's instant
  /// every-worker-died failure -- remote workers come and go).
  std::chrono::milliseconds accept_grace{30000};
  /// Called with the bound port once the listener is up -- how tests
  /// (and --port-file) learn a port-0 listener's address.
  std::function<void(std::uint16_t)> on_listening;
};

struct CoordinatorReport {
  std::size_t stripes = 0;
  std::size_t computed = 0;        ///< cells computed across all workers
  std::size_t adopted = 0;         ///< stripes adopted complete (restart or death-after-publish)
  std::size_t reclaims = 0;        ///< leases taken back from dead/failed workers
  std::size_t retries = 0;         ///< retry leases granted
  std::size_t workers_lost = 0;    ///< worker processes/links that died or were killed
  std::size_t fetched = 0;         ///< stripes streamed back over FETCH and verified
  std::size_t merged_records = 0;  ///< records in the final merged output
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);

  /// Run the sweep to completion and write the merged output.  Throws
  /// std::runtime_error (after killing surviving workers) when the run
  /// cannot complete: spec errors (including a SPEC frame over the
  /// cap), every worker lost (or, serving, no
  /// worker for accept_grace), a stripe out of attempts, conflicting
  /// records, or a merged-output write failure.
  CoordinatorReport run();

 private:
  CoordinatorOptions options_;
};

}  // namespace dist
