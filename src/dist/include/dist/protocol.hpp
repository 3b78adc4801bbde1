#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dist {

/// The coordinator/worker wire protocol of the fault-tolerant sweep.
///
/// One dialect for every worker, local or remote: each message is one
/// length-delimited frame (net/frame.hpp) on a stream socket -- an
/// AF_UNIX socketpair to a worker forked by `dls_sweep coordinate`, a
/// TCP connection to one that dialed `dls_sweep serve`.  Control flows
/// over the stream; record data flows through durable shard files
/// (sweep::ShardWriter): while a stripe is leased, its records
/// accumulate in a per-(stripe, attempt) temp file, and completing the
/// stripe publishes the file atomically.  A worker death at ANY instant
/// therefore leaves either a complete published stripe or a temp file
/// whose only damage is one truncated final line -- exactly what
/// sweep::scan_records reclaims.
///
/// Coordinator -> worker:
///   SPEC <spec bytes...>                     (reply to HELLO)
///   LEASE <stripe> <stripe_count> <attempt> <resume_attempts|->
///   QUIT
///   PING                                     (keepalive probe)
///   FETCH <stripe> <attempt>                 (remote workers)
/// Worker -> coordinator:
///   HELLO <version> <token|->                (first message)
///   READY
///   HB <computed_total>
///   DONE <stripe> <attempt> <computed> <skipped>
///   FAIL <stripe> <attempt> <message...>
///   DATA <stripe> <attempt> <offset> <total> <checksum> <bytes...>
///                                            (remote workers)
///
/// `resume_attempts` is a comma-separated list of prior attempt
/// numbers whose temp files the worker must scan and skip past
/// (`-` = none): the lease carries the reclamation state, so a retry
/// never recomputes records a dead worker already flushed.
///
/// HELLO carries a protocol version and a shared token; anything else
/// as a link's first message is a protocol death.  SPEC ships the grid,
/// so no worker reads a spec file.  Remote workers share no filesystem
/// with the coordinator, so FETCH/DATA stream their published stripes
/// back, verified by length + FNV-1a checksum before the coordinator
/// commits them; local workers publish into the shared workdir.  SPEC,
/// FAIL and DATA carry free tails -- embedded newlines and arbitrary
/// record bytes -- which the framing carries verbatim.  PING is the
/// coordinator's keepalive to workers that hold no lease: a half-open
/// TCP link never EOFs, so liveness must be probed, not inferred from
/// the stream state.

/// Grant of stripe `stripe` of `stripe_count` (the sweep/stripe.hpp
/// striping -- lease identity IS shard identity) as attempt `attempt`.
struct LeaseMsg {
  std::size_t stripe = 0;
  std::size_t stripe_count = 1;
  std::size_t attempt = 0;
  std::vector<std::size_t> resume_attempts;
};

/// Orderly shutdown; the worker exits 0.
struct QuitMsg {};

/// Wire-format revision of the dialect.  Bumped when message
/// layout changes incompatibly; HELLO carries it so a version-skewed
/// worker is turned away at the door instead of failing mid-sweep.
constexpr std::size_t kProtocolVersion = 1;

/// Keepalive probe.  Workers ignore it (arrival alone resets their
/// idle clock); its real job is to make the coordinator's send path
/// touch every link periodically, so a half-open TCP connection
/// surfaces as a send failure instead of idling forever.
struct PingMsg {};

/// The sweep spec, the coordinator's reply to a worker's HELLO.  The
/// text is the full grid spec (with the backend line already
/// appended), newlines included; its frame is capped at
/// net::kMaxFramePayload like any other.
struct SpecMsg {
  std::string text;
};

/// Request the published stripe file for `(stripe, attempt)` to be
/// streamed back as DATA chunks.  Sent after a verified-stale-free
/// DONE from a remote worker; the stripe stays leased until the last
/// chunk verifies, so a worker dying mid-stream reclaims like any
/// other death.
struct FetchMsg {
  std::size_t stripe = 0;
  std::size_t attempt = 0;
};

/// The worker parsed the SPEC and is ready for leases.
struct ReadyMsg {};

/// Liveness beacon, sent every heartbeat interval from a dedicated
/// thread (so a long-running cell cannot starve it); `computed` is the
/// worker's lifetime computed-cell count, a progress signal for free.
struct HeartbeatMsg {
  std::size_t computed = 0;
};

/// Stripe complete and its shard file published (renamed into place)
/// BEFORE this message was sent -- so a worker that dies between the
/// rename and the DONE leaves a complete stripe the coordinator adopts
/// on reclaim instead of retrying.
struct DoneMsg {
  std::size_t stripe = 0;
  std::size_t attempt = 0;
  std::size_t computed = 0;
  std::size_t skipped = 0;
};

/// The lease failed (run error, unwritable shard, ...); the worker
/// stays alive and leasable.  The coordinator retries the stripe
/// elsewhere with backoff.
struct FailMsg {
  std::size_t stripe = 0;
  std::size_t attempt = 0;
  std::string message;
};

/// First message on every link, before anything else: protocol
/// version + shared secret ("-" = no token).  The coordinator answers
/// with SPEC; a wrong token or version gets the link dropped and an
/// "auth"/"version" death logged.
struct HelloMsg {
  std::size_t version = kProtocolVersion;
  std::string token;
};

/// One chunk of a streamed stripe file: bytes [offset, offset+size)
/// of a `total`-byte file whose FNV-1a 64 checksum is `checksum`.
/// Chunks arrive in order; `offset + bytes.size() == total` marks the
/// last one, after which the coordinator verifies length + checksum +
/// record validity and only then commits the stripe.
struct DataMsg {
  std::size_t stripe = 0;
  std::size_t attempt = 0;
  std::size_t offset = 0;
  std::size_t total = 0;
  std::uint64_t checksum = 0;
  std::string bytes;
};

using CoordinatorMsg = std::variant<LeaseMsg, QuitMsg, PingMsg, SpecMsg, FetchMsg>;
using WorkerMsg = std::variant<ReadyMsg, HeartbeatMsg, DoneMsg, FailMsg, HelloMsg, DataMsg>;

[[nodiscard]] std::string encode(const CoordinatorMsg& msg);
[[nodiscard]] std::string encode(const WorkerMsg& msg);

/// Parse one protocol message (one frame's payload).  Throws
/// std::invalid_argument naming the malformed message -- a garbled
/// control stream is a failed peer, never silently ignored.
[[nodiscard]] CoordinatorMsg parse_coordinator_msg(std::string_view line);
[[nodiscard]] WorkerMsg parse_worker_msg(std::string_view line);

/// Shard-file layout inside the coordinator's work directory.
/// Published stripes are `stripe<k>.jsonl`; attempt `a` streams into
/// `stripe<k>.attempt<a>.tmp` until commit renames it into place.
[[nodiscard]] std::string stripe_final_path(std::string_view dir, std::size_t stripe);
[[nodiscard]] std::string stripe_attempt_path(std::string_view dir, std::size_t stripe,
                                              std::size_t attempt);

/// Capped exponential backoff before retrying a reclaimed stripe:
/// min(cap, base * 2^(attempt-1)) for attempt >= 1 (saturating, no
/// overflow for any attempt).
[[nodiscard]] std::chrono::milliseconds backoff_delay(std::size_t attempt,
                                                      std::chrono::milliseconds base,
                                                      std::chrono::milliseconds cap);

/// Fault injection -- the chaos harness.  A directive makes worker
/// `worker` misbehave once its lifetime computed-cell count reaches
/// `after_cells`:
///   kill      raise(SIGKILL) between records -- the clean-death case
///   truncate  write a torn record prefix to the live shard temp file,
///             then SIGKILL -- the death-mid-write case
///   hang      stop heartbeating and freeze -- the zombie case, which
///             only the coordinator's lease deadline can reclaim
///   fetchcut  (remote workers) complete the stripe, then die after
///             streaming only the first DATA chunk of the FETCH reply
///             -- the mid-transfer-death case; the coordinator must
///             discard the partial stream and retry the stripe
enum class ChaosMode { kill, truncate, hang, fetchcut };

struct ChaosKill {
  std::size_t worker = 0;
  std::size_t after_cells = 1;
  ChaosMode mode = ChaosMode::kill;
};

[[nodiscard]] std::string_view chaos_mode_name(ChaosMode mode);
[[nodiscard]] ChaosMode parse_chaos_mode(std::string_view name);

/// Parse a chaos directive list: `<worker>:<after_cells>[:<mode>]`,
/// comma-separated, e.g. "1:2,3:4:truncate".  Throws
/// std::invalid_argument on malformed entries.
[[nodiscard]] std::vector<ChaosKill> parse_chaos_list(std::string_view text);

/// Derive `kills` chaos directives from a seed (splitmix64 stream):
/// distinct workers, kill points in [1, max_after], alternating
/// kill/truncate modes -- the "seeded points" form the CI chaos job
/// uses.  kills must be <= workers.
[[nodiscard]] std::vector<ChaosKill> derive_chaos(std::uint64_t seed, std::size_t kills,
                                                  std::size_t workers, std::size_t max_after);

/// One entry of the coordinator's lease-event log (JSONL, one line per
/// event), the audit trail the lease-exclusivity invariant replays.
/// `seq` is a per-run monotonic counter -- ordering without wall
/// clocks, so logs are deterministic under test.
///
/// Kinds and their fields:
///   spawn    worker [detail]     a worker process started (detail
///                                "accept" = a remote worker connected)
///   hello    worker              handshake verified (version + token);
///                                precedes any lease to that worker --
///                                see check/net.hpp
///   ready    worker              its READY arrived
///   lease    worker stripe attempt          lease granted
///   done     worker stripe attempt          DONE verified, stripe complete
///   adopt    worker stripe attempt          published stripe found complete
///                                           on reclaim (or coordinator
///                                           restart: worker = npos)
///   fetch    worker stripe attempt          FETCH issued for a remote
///                                           stripe; the matching done
///                                           carries detail "fetched"
///   reclaim  worker stripe attempt detail   lease taken back (detail:
///                                           exit|deadline|fail: <the
///                                           worker's FAIL text>|invalid)
///   retry    stripe attempt backoff_ms      retry scheduled
///   dead     worker detail                  worker exited/was killed
///                                           (detail adds: protocol|
///                                           auth|version|hello-timeout)
///   giveup   stripe attempt                 retries exhausted
///   complete                                 all stripes done, merged
///
/// `detail` is JSON-escaped on encode and unescaped on parse: a FAIL
/// text comes from outside the program and may hold quotes, newlines
/// or control bytes.
struct LeaseEvent {
  std::size_t seq = 0;
  std::string kind;
  std::size_t worker = npos;
  std::size_t stripe = npos;
  std::size_t attempt = npos;
  std::int64_t backoff_ms = -1;
  std::string detail;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

[[nodiscard]] std::string encode_lease_event(const LeaseEvent& event);
/// nullopt if the line is not a lease event (e.g. truncated by a
/// coordinator kill -- tolerated at a log tail like record tails).
[[nodiscard]] std::optional<LeaseEvent> parse_lease_event(std::string_view line);

}  // namespace dist
