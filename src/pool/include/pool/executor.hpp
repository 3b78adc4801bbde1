#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace pool {

/// Number of participants a pool defaults to: hardware concurrency,
/// overridable via the DLS_THREADS environment variable (deterministic
/// CI runs, the tools' --threads flags).  Always >= 1.
[[nodiscard]] unsigned default_thread_count();

/// A persistent, reusable work-claiming thread pool.
///
/// A transient pool pays for its parallelism per call: spawning and
/// joining a set of threads for every parallel loop makes the
/// thousands-of-replica grids of the paper's Section III-B sweeps
/// spend a measurable share of their wall clock in thread creation
/// instead of simulation.  An Executor makes concurrency an amortized
/// resource instead:
///
///  - **Lazy start, idle parking.**  No thread exists until the first
///    parallel region that needs one; between regions the workers park
///    on a condition variable.  A process that never runs a parallel
///    region pays nothing for Executor::shared().
///  - **Chunked atomic claiming.**  A region's [0, count) index space
///    is claimed in blocks of `grain` indices from one atomic counter
///    -- the same grain semantics (and the same in-grain cancellation
///    rule) the transient pool had, so callers keep their determinism
///    contract: every index runs exactly once, order unspecified.
///  - **Stable slot IDs.**  Every participating thread has a fixed slot
///    in [0, slot_count()): the calling thread is always slot 0 and
///    worker w is always slot w+1, for the lifetime of the pool.
///    Callers keep per-thread state (e.g. exec::BatchRunner's
///    per-(slot, backend) engine caches) in a plain vector indexed by
///    slot, with no locks and no thread-local lifetime headaches.
///  - **Exception capture.**  The first exception thrown by any body is
///    captured, the remaining work is cancelled (checked both per grain
///    claim and inside a grain), and the exception is rethrown on the
///    calling thread.
///  - **Safe re-entry.**  A parallel region started from inside another
///    region of the same pool (from a worker or from the calling
///    thread) runs inline and serially instead of deadlocking -- nested
///    parallelism collapses to the outer region's thread budget.
///
/// Concurrent regions from *different* threads on one Executor are
/// serialized (the second caller blocks until the first region ends).
class Executor {
 public:
  /// `threads` is the pool's width: the maximum number of participants
  /// (calling thread included) of a region.  0 = default_thread_count()
  /// resolved now.  No worker threads are started yet.
  explicit Executor(unsigned threads = 0);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor();

  /// Maximum participants of a region that does not ask for more.  A
  /// parallel call requesting more than width() grows the pool (the
  /// transient pool it replaces honored any request); slots of existing
  /// workers never change.
  [[nodiscard]] unsigned width() const;

  /// Upper bound (exclusive) of the slot IDs a region can currently
  /// observe: spawned workers + 1.  Grows with the pool, never shrinks.
  [[nodiscard]] unsigned slot_count() const;

  /// Spawn workers now so that slot_count() covers a region of
  /// `threads` participants, without running anything.  Lets callers
  /// size per-slot state before entering the region.
  void reserve(unsigned threads);

  /// Run body(i) for i in [0, count) across up to `threads`
  /// participants (0 = width()), claiming `grain` indices per grab.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                    unsigned threads = 0, std::size_t grain = 1);

  /// As parallel_for, with the participant's stable slot ID as the
  /// second argument.
  ///
  /// `slot_limit` (0 = uncapped) bounds the slot IDs the region can
  /// observe: workers whose slot is >= slot_limit sit the region out.
  /// Callers that size per-slot state from slot_count() MUST pass that
  /// size here -- another thread may grow the pool (reserve, a wider
  /// region) between the sizing and the region, and without the cap a
  /// newly spawned worker could join with a slot the caller never
  /// sized for.
  void parallel_for_slots(std::size_t count,
                          const std::function<void(std::size_t, unsigned)>& body,
                          unsigned threads = 0, std::size_t grain = 1,
                          unsigned slot_limit = 0);

  /// The process-wide pool (width = default_thread_count() at first
  /// use).  Constructed lazily; costs nothing -- no threads, no locks
  /// taken at startup -- until the first parallel region runs on it.
  [[nodiscard]] static Executor& shared();

 private:
  struct Region {
    // The configuration block (count..slot_limit) is written by the
    // caller BEFORE the region is published as region_ under
    // Executor::mutex_ and never mutated afterwards; workers only
    // reach it through the mutex acquire that showed them the pointer,
    // so the unguarded reads in work() are ordered.  The analysis (and
    // TSan) cannot express "immutable after publication", which is why
    // these fields carry no DLS_GUARDED_BY.
    std::size_t count = 0;
    std::size_t grain = 1;
    void (*invoke)(const void* body, std::size_t index, unsigned slot) = nullptr;
    const void* body = nullptr;
    unsigned max_workers = 0;  ///< workers (excl. caller) allowed to join
    unsigned slot_limit = 0;   ///< exclusive slot-ID bound (0 = uncapped)

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    support::Mutex error_mutex;
    std::exception_ptr error DLS_GUARDED_BY(error_mutex);
    // joined/active are guarded by Executor::mutex_ -- a nested struct
    // cannot name the owning instance's capability, so all access goes
    // through the DLS_REQUIRES(mutex_) helpers below.
    unsigned joined = 0;
    unsigned active = 0;
  };

  void run_region(std::size_t count, std::size_t grain, unsigned threads,
                  unsigned slot_limit, void (*invoke)(const void*, std::size_t, unsigned),
                  const void* body) DLS_EXCLUDES(region_mutex_, mutex_);
  void work(Region& region, unsigned slot) DLS_EXCLUDES(mutex_);
  void worker_main(unsigned slot) DLS_EXCLUDES(mutex_);
  void spawn_workers_locked(unsigned target_workers) DLS_REQUIRES(mutex_);
  /// Join `region` if it still wants hands and `slot` is inside its
  /// slot cap; counts the worker in joined/active on success.
  [[nodiscard]] bool try_join_region(Region& region, unsigned slot) DLS_REQUIRES(mutex_);
  /// Count a participant out; true when the region just drained.
  [[nodiscard]] bool leave_region(Region& region) DLS_REQUIRES(mutex_);

  mutable support::Mutex mutex_;
  support::CondVar wake_cv_;          ///< parks idle workers
  support::CondVar done_cv_;          ///< caller waits for region drain
  std::vector<std::jthread> workers_ DLS_GUARDED_BY(mutex_);
  Region* region_ DLS_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ DLS_GUARDED_BY(mutex_) = 0;
  bool stop_ DLS_GUARDED_BY(mutex_) = false;
  std::atomic<unsigned> width_{1};    ///< atomic: read outside mutex_
  /// Serializes whole regions; always taken before mutex_.
  support::Mutex region_mutex_ DLS_ACQUIRED_BEFORE(mutex_);
};

}  // namespace pool
