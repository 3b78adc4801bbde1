#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"

namespace check {

/// Transport invariants of the distributed sweep (dls::net), replayed
/// from the coordinator's lease-event log like check/dist.hpp's.  Each
/// returns std::nullopt when the invariant holds and a human-readable
/// account of the first violation otherwise; `dls_check leases` runs
/// them alongside lease exclusivity.  Both tolerate coordinator
/// restarts (seq moving backward resets the replay).

/// "hello_before_lease": no lease is ever granted to a worker that has
/// not completed the HELLO handshake -- an unauthenticated link must
/// never touch the lease table.  Every link owes one, local or remote:
/// a `spawn` opens the link and resets its handshake state (a
/// reconnecting client must HELLO again), its death closes it, and a
/// `hello` on a link that is not open is itself a violation.
[[nodiscard]] std::optional<std::string> check_hello_before_lease(
    const std::vector<dist::LeaseEvent>& events);

/// "fetch_before_done": every `done` with detail "fetched" (a remote
/// stripe committed from a DATA stream) is preceded by a matching
/// `fetch` event for the same (worker, stripe, attempt) -- the
/// coordinator never commits remote bytes it did not ask for.
[[nodiscard]] std::optional<std::string> check_fetch_before_done(
    const std::vector<dist::LeaseEvent>& events);

}  // namespace check
