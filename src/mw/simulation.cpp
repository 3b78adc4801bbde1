#include "mw/simulation.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dls/technique.hpp"
#include "simx/engine.hpp"
#include "simx/mailbox.hpp"
#include "support/small_vector.hpp"
#include "workload/random_source.hpp"

namespace mw {
namespace {

/// Work request; doubles as the completion report for the worker's
/// previous chunk (a worker only asks again once it has finished), and
/// as the fail-stop announcement when `failed` is set.
struct WorkRequest {
  std::size_t worker = 0;
  std::size_t done_size = 0;      ///< tasks in the completed chunk (0 on first request)
  double done_exec_time = 0.0;    ///< measured execution time of that chunk
  bool failed = false;            ///< fail-stop announcement
  std::size_t failed_size = 0;    ///< outstanding (lost) tasks being returned
};

/// Chunk assignment; count == 0 is the finalization message.
struct WorkReply {
  double work_seconds = 0.0;  ///< aggregate nominal execution time
  std::size_t count = 0;
  std::size_t first = 0;      ///< first task index (chunk-log bookkeeping)
};

/// A contiguous range of unassigned task indices.  The master serves
/// chunks from a free-list of such ranges so that ranges reclaimed from
/// failed workers can be re-scheduled.
struct TaskRange {
  std::size_t first = 0;
  std::size_t count = 0;
};

/// The sub-ranges of one worker's most recent chunk.  Chunks span a
/// single range except after failures fragment the free list, so two
/// inline slots make the common case allocation-free.
using RangeList = support::SmallVector<TaskRange, 2>;

/// Master-side free-list bookkeeping shared by the serve path.
class TaskPool {
 public:
  void reset(std::size_t n) {
    ranges_.clear();
    head_ = 0;
    ranges_.push_back(TaskRange{0, n});
  }
  void give_back(TaskRange range) { ranges_.push_back(range); }

  /// Take `count` tasks from the front of the free list (possibly
  /// spanning reclaimed fragments); their nominal seconds come from the
  /// prefix-sum index, so the cost is O(#ranges touched) rather than
  /// O(chunk size).  The exact sub-ranges taken are appended to `taken`
  /// (cleared first), so a failed chunk can be given back precisely.
  void take(std::size_t count, std::span<const double> prefix, double& seconds,
            RangeList& taken) {
    taken.clear();
    seconds = 0.0;
    std::size_t need = count;
    while (need > 0) {
      if (head_ == ranges_.size()) throw std::logic_error("TaskPool: free-list underflow");
      TaskRange& front = ranges_[head_];
      const std::size_t take_now = std::min(front.count, need);
      seconds += prefix[front.first + take_now] - prefix[front.first];
      taken.push_back(TaskRange{front.first, take_now});
      front.first += take_now;
      front.count -= take_now;
      need -= take_now;
      if (front.count == 0 && ++head_ == ranges_.size()) {
        ranges_.clear();  // compact when drained; capacity is kept
        head_ = 0;
      }
    }
  }

 private:
  // FIFO of free ranges: consumed at head_, reclaimed fragments
  // appended at the back and reused in arrival order without
  // re-scanning the list.
  std::vector<TaskRange> ranges_;
  std::size_t head_ = 0;
};

/// Reusable FIFO of worker indices (the serve queue; bounded by p).
class IndexQueue {
 public:
  void clear() {
    items_.clear();
    head_ = 0;
  }
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  void push(std::size_t v) { items_.push_back(v); }
  std::size_t pop() {
    const std::size_t v = items_[head_++];
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
    return v;
  }

 private:
  std::vector<std::size_t> items_;
  std::size_t head_ = 0;
};

struct Shared;

struct WorkerState {
  Shared* shared = nullptr;
  std::size_t id = 0;
  double failure_time = std::numeric_limits<double>::infinity();
};

/// What the platform of a cached engine was built from; runs with an
/// equal shape reuse the engine (and its hosts/links/routes) outright.
struct PlatformShape {
  std::size_t workers = 0;
  double host_speed = 0.0;
  double bandwidth = 0.0;
  double latency = 0.0;
  std::vector<double> factors;
  std::vector<simx::SpeedProfile> profiles;

  /// Allocation-free equality against a Config (the cache-hit test
  /// must not copy the Config's vectors just to compare them).
  [[nodiscard]] bool matches(const Config& config) const {
    return workers == config.workers && host_speed == config.host_speed &&
           bandwidth == config.bandwidth && latency == config.latency &&
           factors == config.worker_speed_factors &&
           profiles == config.worker_speed_profiles;
  }
};

}  // namespace

/// All reusable run state.  Vectors are assign()ed/clear()ed per run so
/// their capacity survives; the engine survives whole when the platform
/// shape matches.
struct RunContext::Impl {
  // Engine cache (platform construction is the only per-run cost that
  // grows with the worker count).
  std::optional<simx::Engine> engine;
  PlatformShape shape;
  std::optional<simx::Mailbox<WorkRequest>> master_box;
  std::deque<simx::Mailbox<WorkReply>> worker_boxes;  // Mailbox is immovable
  std::vector<simx::Mailbox<WorkReply>*> worker_box_ptrs;

  // Per-worker route costs, computed once per run instead of per chunk.
  std::vector<simx::SimTime> request_delay;
  std::vector<simx::SimTime> reply_delay;

  // Serve-loop buffers.
  workload::TaskDraw later_steps;  ///< timesteps after the first are drawn here
  TaskPool pool;
  IndexQueue to_serve;
  std::vector<std::size_t> parked;
  std::vector<std::size_t> tasks_per_worker;
  std::vector<std::size_t> chunks_per_worker;
  std::vector<char> worker_failed;
  std::vector<char> finalized;
  std::vector<RangeList> last_served;
  std::vector<dls::ChunkRecord> chunk_log;
  std::vector<ServedRangeEntry> range_log;
  std::vector<WorkerState> worker_states;
};

RunContext::RunContext() : impl_(std::make_unique<Impl>()) {}
RunContext::~RunContext() = default;

namespace {

struct Shared {
  const Config* config = nullptr;
  dls::Technique* technique = nullptr;
  workload::RandomSource* rng = nullptr;
  RunContext::Impl* buf = nullptr;
  /// Running sums of the step being served (step 0's draw, then
  /// buf->later_steps).
  std::span<const double> prefix;

  // scalar outputs
  double total_nominal_work = 0.0;
  std::size_t chunk_count = 0;
  std::size_t tasks_reclaimed = 0;
};

/// Worker actor: request -> receive -> execute, until finalized ("When
/// it finishes, it sends again a work request message to the master",
/// paper Section II).  A worker whose fail-stop time arrives announces
/// the failure together with its unfinished chunk and stops.
simx::Actor worker_actor(simx::Context& ctx, WorkerState& st) {
  Shared& sh = *st.shared;
  RunContext::Impl& buf = *sh.buf;
  const Config& cfg = *sh.config;
  const simx::SimTime request_delay = buf.request_delay[st.id];
  simx::Mailbox<WorkRequest>& master_box = *buf.master_box;
  simx::Mailbox<WorkReply>& reply_box = *buf.worker_box_ptrs[st.id];
  co_await master_box.send_from_delayed(ctx, WorkRequest{st.id, 0, 0.0, false, 0},
                                        request_delay);
  WorkReply reply = co_await reply_box.recv(ctx);
  for (;;) {
    if (reply.count == 0) break;
    // Nominal seconds are defined against the reference speed; the
    // host's own (possibly slower/faster, possibly time-varying) speed
    // determines the actual duration.
    const double flops = reply.work_seconds * cfg.host_speed;
    const double t0 = ctx.now();
    if (t0 >= st.failure_time) {
      // Died while waiting: the whole chunk is lost.  Announce and stop;
      // the master expects nothing more.
      co_await master_box.send_from_delayed(
          ctx, WorkRequest{st.id, 0, 0.0, true, reply.count}, request_delay);
      break;
    }
    double finish = std::numeric_limits<double>::infinity();
    try {
      finish = ctx.host().finish_time(t0, flops);
    } catch (const std::runtime_error&) {
      // The host's remaining capacity is zero forever.  With a finite
      // fail-stop time the chunk is simply lost at that instant (the
      // failure lands inside the stopped window); without one the
      // configuration really is unrunnable.
      if (st.failure_time == std::numeric_limits<double>::infinity()) throw;
    }
    if (finish > st.failure_time) {
      // Dies mid-chunk: burn until the failure instant (the partial
      // results are lost -- fail-stop), then announce and stop.
      co_await ctx.compute_for(st.failure_time - t0);
      co_await master_box.send_from_delayed(
          ctx, WorkRequest{st.id, 0, 0.0, true, reply.count}, request_delay);
      break;
    }
    // Fused execute + next request + reply wait: one simulation event
    // and one suspension per chunk instead of two events and three
    // suspensions (the wake-at-finish, send-completion, and
    // recv-suspension points were always back to back).  `finish - t0`,
    // the request's arrival time, and every accrual instant are
    // bit-identical to the unfused
    // `co_await ctx.execute(flops); ...send_from_delayed(...); recv()`.
    co_await master_box.send_from_after(
        ctx, WorkRequest{st.id, reply.count, finish - t0, false, 0}, finish, request_delay);
    reply = co_await reply_box.recv(ctx);
  }
}

/// Master actor: serves chunk requests with the DLS technique,
/// re-schedules chunks reclaimed from failed workers, and distributes
/// finalization messages at the end (paper Figure 1).
///
/// A worker whose request arrives when the current step has no
/// unscheduled tasks left is "parked": its request stays answered-once
/// by serving it at the start of the next time step, or by a
/// finalization message after the last step.
simx::Actor master_actor(simx::Context& ctx, Shared& sh) {
  const Config& cfg = *sh.config;
  dls::Technique& tech = *sh.technique;
  RunContext::Impl& buf = *sh.buf;
  const std::size_t p = cfg.workers;
  std::vector<std::size_t>& parked = buf.parked;  // workers waiting for the next step
  IndexQueue& to_serve = buf.to_serve;
  TaskPool& pool = buf.pool;
  std::size_t alive = p;

  for (std::size_t step = 0; step < cfg.timesteps; ++step) {
    if (step > 0) {
      tech.start_new_timestep();
      // The total carries over, so the run's total nominal work stays
      // one left-to-right sum over every step's times.
      cfg.workload->draw(buf.later_steps, cfg.tasks, *sh.rng,
                         workload::DrawParts::kPrefix | workload::DrawParts::kTotal,
                         sh.total_nominal_work);
      sh.total_nominal_work = buf.later_steps.total;
      sh.prefix = buf.later_steps.prefix;
    }
    pool.reset(cfg.tasks);
    std::size_t completed_tasks = 0;  // completed in this step
    to_serve.clear();
    for (const std::size_t worker : parked) to_serve.push(worker);
    parked.clear();

    while (completed_tasks < cfg.tasks) {
      if (!to_serve.empty()) {
        const std::size_t worker = to_serve.pop();
        if (tech.remaining() == 0) {  // an earlier serve may have taken the rest
          parked.push_back(worker);
          continue;
        }
        // The scheduling-overhead window [now, issue_at) is charged as
        // master computing time by the fused send below; issue_at is the
        // exact clock value the old `co_await ctx.compute_for(h)` would
        // have woken at, so the technique sees identical request times.
        const simx::SimTime issue_at =
            (cfg.overhead_mode == OverheadMode::kSimulated && cfg.params.h > 0.0)
                ? ctx.now() + cfg.params.h
                : ctx.now();
        const std::size_t chunk = tech.next_chunk(dls::Request{worker, issue_at});
        double seconds = 0.0;
        RangeList& served = buf.last_served[worker];
        pool.take(chunk, sh.prefix, seconds, served);
        const std::size_t log_first = served.front().first;
        ++sh.chunk_count;
        ++buf.chunks_per_worker[worker];
        buf.tasks_per_worker[worker] += chunk;
        if (cfg.record_chunk_log) {
          for (const TaskRange& r : served) {
            buf.range_log.push_back(ServedRangeEntry{buf.chunk_log.size(), r.first, r.count});
          }
          buf.chunk_log.push_back(dls::ChunkRecord{worker, log_first, chunk, issue_at, seconds});
        }
        // Fused overhead-compute + reply send: one event per served
        // chunk instead of two.
        co_await buf.worker_box_ptrs[worker]->send_from_after(
            ctx, WorkReply{seconds, chunk, log_first}, issue_at, buf.reply_delay[worker]);
        continue;
      }
      const WorkRequest request = co_await buf.master_box->recv(ctx);
      if (request.failed) {
        // Fail-stop: reclaim the outstanding chunk and re-schedule it.
        buf.worker_failed[request.worker] = 1;
        --alive;
        if (request.failed_size > 0) {
          // Give the worker's outstanding chunk back to the pool and to
          // the technique's unscheduled count; the surviving workers
          // will be handed those tasks again.
          tech.reclaim(request.failed_size);
          for (const TaskRange& r : buf.last_served[request.worker]) pool.give_back(r);
          buf.tasks_per_worker[request.worker] -= request.failed_size;
          sh.tasks_reclaimed += request.failed_size;
          // Workers parked after seeing remaining() == 0 must come back
          // for the reclaimed tasks, or the step deadlocks when the
          // failed worker held the only outstanding chunk.
          for (const std::size_t worker : parked) to_serve.push(worker);
          parked.clear();
        }
        if (alive == 0) {
          throw std::runtime_error("all workers failed with " +
                                   std::to_string(cfg.tasks - completed_tasks) +
                                   " tasks incomplete in step " + std::to_string(step));
        }
        continue;
      }
      if (request.done_size > 0) {
        completed_tasks += request.done_size;
        tech.on_chunk_complete(dls::ChunkFeedback{request.worker, request.done_size,
                                                  request.done_exec_time, ctx.now()});
      }
      if (completed_tasks >= cfg.tasks || tech.remaining() == 0) {
        parked.push_back(request.worker);
        continue;  // loop condition ends the step once all tasks confirmed
      }
      to_serve.push(request.worker);
    }
  }

  // All tasks of all steps completed: finalize the parked workers and
  // drain the final request of every other live worker ("On completion
  // of all tasks, the master sends finalization messages").
  buf.finalized.assign(p, 0);
  std::size_t finalized_count = 0;
  for (const std::size_t worker : parked) {
    buf.finalized[worker] = 1;
    ++finalized_count;
    co_await buf.worker_box_ptrs[worker]->send_from_delayed(ctx, WorkReply{0.0, 0, 0},
                                                            buf.reply_delay[worker]);
  }
  while (finalized_count < alive) {
    const WorkRequest request = co_await buf.master_box->recv(ctx);
    if (request.failed) {
      // A failure announced after its last completion: nothing to
      // reclaim (all tasks are done), the worker just leaves.
      buf.worker_failed[request.worker] = 1;
      --alive;
      continue;
    }
    if (request.done_size > 0) {
      tech.on_chunk_complete(dls::ChunkFeedback{request.worker, request.done_size,
                                                request.done_exec_time, ctx.now()});
    }
    if (buf.finalized[request.worker]) {
      throw std::logic_error("worker " + std::to_string(request.worker) +
                             " requested after finalization");
    }
    buf.finalized[request.worker] = 1;
    ++finalized_count;
    co_await buf.worker_box_ptrs[request.worker]->send_from_delayed(
        ctx, WorkReply{0.0, 0, 0}, buf.reply_delay[request.worker]);
  }
}

}  // namespace

void validate(const Config& cfg) {
  if (cfg.workers == 0) throw std::invalid_argument("Config.workers must be >= 1");
  if (cfg.tasks == 0) throw std::invalid_argument("Config.tasks must be >= 1");
  if (cfg.timesteps == 0) throw std::invalid_argument("Config.timesteps must be >= 1");
  if (!cfg.workload) throw std::invalid_argument("Config.workload is not set");
  if (!(cfg.host_speed > 0.0)) throw std::invalid_argument("Config.host_speed must be > 0");
  if (!cfg.worker_speed_factors.empty() && cfg.worker_speed_factors.size() != cfg.workers) {
    throw std::invalid_argument("Config.worker_speed_factors size must equal workers");
  }
  for (double f : cfg.worker_speed_factors) {
    if (!(f > 0.0)) throw std::invalid_argument("worker speed factors must be > 0");
  }
  if (!cfg.worker_speed_profiles.empty() && cfg.worker_speed_profiles.size() != cfg.workers) {
    throw std::invalid_argument("Config.worker_speed_profiles size must equal workers");
  }
  for (const simx::SpeedProfile& profile : cfg.worker_speed_profiles) profile.validate();
  if (!cfg.worker_failure_times.empty() && cfg.worker_failure_times.size() != cfg.workers) {
    throw std::invalid_argument("Config.worker_failure_times size must equal workers");
  }
  for (double t : cfg.worker_failure_times) {
    if (t < 0.0) throw std::invalid_argument("worker failure times must be >= 0");
  }
  // The master-worker links simx::Platform::add_route builds.
  if (!(cfg.bandwidth > 0.0)) throw std::invalid_argument("Config.bandwidth must be > 0");
  if (!(cfg.latency >= 0.0)) throw std::invalid_argument("Config.latency must be >= 0");
}

RunResult run_simulation(const Config& config, RunContext& context,
                         const workload::TaskDraw& step0, workload::RandomSource& rest) {
  validate(config);
  if (!workload::includes(step0.parts, kDrawParts) || step0.prefix.size() != config.tasks + 1) {
    throw std::invalid_argument("run_simulation: the step-0 draw holds " +
                                std::to_string(step0.prefix.size()) + " running sums for " +
                                std::to_string(config.tasks) + " tasks (needs tasks + 1)");
  }
  RunContext::Impl& buf = *context.impl_;
  const std::size_t p = config.workers;

  // A run that throws can leave actors stuck and mailboxes non-empty;
  // drop the cached engine in that case so the next run starts clean.
  struct CacheGuard {
    RunContext::Impl* buf;
    bool ok = false;
    ~CacheGuard() {
      if (ok) return;
      buf->master_box.reset();
      buf->worker_boxes.clear();
      buf->worker_box_ptrs.clear();
      buf->engine.reset();
    }
  } guard{&buf};

  if (!buf.engine.has_value() || !buf.shape.matches(config)) {
    buf.master_box.reset();
    buf.worker_boxes.clear();
    buf.worker_box_ptrs.clear();
    buf.engine.reset();

    simx::Platform platform;
    const simx::Host& master = platform.add_host("master", config.host_speed);
    for (std::size_t i = 0; i < p; ++i) {
      const double factor =
          config.worker_speed_factors.empty() ? 1.0 : config.worker_speed_factors[i];
      simx::Host& worker_host =
          platform.add_host(simx::indexed_name("w", i), config.host_speed * factor);
      if (!config.worker_speed_profiles.empty()) {
        worker_host.set_speed_profile(config.worker_speed_profiles[i]);
      }
      platform.add_route(master, worker_host, config.bandwidth, config.latency);
    }
    buf.engine.emplace(std::move(platform));
    buf.shape = PlatformShape{p,
                              config.host_speed,
                              config.bandwidth,
                              config.latency,
                              config.worker_speed_factors,
                              config.worker_speed_profiles};
  } else {
    buf.engine->reset();
  }
  simx::Engine& engine = *buf.engine;
  simx::Platform& plat = engine.platform();
  simx::Host& master_host = plat.host_at(0);

  if (!buf.master_box.has_value()) buf.master_box.emplace(engine, "master", master_host);
  if (buf.worker_boxes.size() != p) {
    buf.worker_boxes.clear();
    buf.worker_box_ptrs.clear();
    for (std::size_t i = 0; i < p; ++i) {
      buf.worker_boxes.emplace_back(engine, simx::indexed_name("w", i), plat.host_at(i + 1));
      buf.worker_box_ptrs.push_back(&buf.worker_boxes.back());
    }
  }

  buf.request_delay.resize(p);
  buf.reply_delay.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    simx::Host& worker_host = plat.host_at(i + 1);
    buf.request_delay[i] = plat.comm_time(worker_host, master_host, config.request_bytes);
    buf.reply_delay[i] = plat.comm_time(master_host, worker_host, config.reply_bytes);
  }

  dls::Params params = config.params;
  params.p = p;
  params.n = config.tasks;
  const auto technique = dls::make_technique(config.technique, params);

  Shared shared;
  shared.config = &config;
  shared.technique = technique.get();
  shared.rng = &rest;
  shared.buf = &buf;
  buf.tasks_per_worker.assign(p, 0);
  buf.chunks_per_worker.assign(p, 0);
  buf.worker_failed.assign(p, 0);
  buf.last_served.resize(p);
  for (RangeList& ranges : buf.last_served) ranges.clear();
  buf.parked.clear();
  buf.to_serve.clear();
  buf.chunk_log.clear();
  buf.range_log.clear();
  if (config.record_chunk_log) {
    // The chunk count is technique-dependent and unknown up front;
    // seed the log with a capacity that covers typical non-SS runs.
    const std::size_t estimate =
        std::min(config.tasks * config.timesteps, 64 + 16 * p * config.timesteps);
    buf.chunk_log.reserve(estimate);
    buf.range_log.reserve(estimate);
  }
  // Step 0's total is its last running sum: the same left-to-right
  // additions from 0.
  shared.prefix = step0.prefix;
  shared.total_nominal_work = step0.prefix.back();

  buf.worker_states.assign(p, WorkerState{});
  for (std::size_t i = 0; i < p; ++i) {
    buf.worker_states[i].shared = &shared;
    buf.worker_states[i].id = i;
    if (!config.worker_failure_times.empty()) {
      buf.worker_states[i].failure_time = config.worker_failure_times[i];
    }
  }

  engine.reserve_events(2 * p + 16);
  engine.spawn("master", master_host,
               [&shared](simx::Context& ctx) { return master_actor(ctx, shared); });
  for (std::size_t i = 0; i < p; ++i) {
    engine.spawn(simx::indexed_name("worker", i), plat.host_at(i + 1),
                 [&buf, i](simx::Context& ctx) {
                   return worker_actor(ctx, buf.worker_states[i]);
                 });
  }

  const simx::SimTime makespan = engine.run();
  if (!engine.all_finished()) {
    throw std::runtime_error("simulation deadlock: actor '" +
                             engine.unfinished_actors().front() + "' never finished");
  }

  RunResult result;
  result.makespan = makespan;
  result.total_nominal_work = shared.total_nominal_work;
  result.chunk_count = shared.chunk_count;
  result.tasks_reclaimed = shared.tasks_reclaimed;
  result.chunk_log = std::move(buf.chunk_log);
  result.range_log = std::move(buf.range_log);
  result.master_busy_time = engine.actor_times(0).computing;
  result.workers.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    const simx::ActorTimes acc = engine.actor_times(i + 1);  // spawn order: master first
    WorkerStats& w = result.workers[i];
    w.compute_time = acc.computing;
    w.wait_time = acc.waiting + (makespan - acc.finished_at);  // idle after finalization too
    w.comm_time = acc.communicating;
    w.tasks = buf.tasks_per_worker[i];
    w.chunks = buf.chunks_per_worker[i];
    w.failed = buf.worker_failed[i] != 0;
  }
  guard.ok = true;
  return result;
}

RunResult run_simulation(const Config& config) {
  validate(config);
  const std::unique_ptr<workload::RandomSource> rng =
      workload::make_source(config.seed, config.use_rand48);
  workload::TaskDraw step0;
  config.workload->draw(step0, config.tasks, *rng, kDrawParts);
  RunContext context;
  return run_simulation(config, context, step0, *rng);
}

}  // namespace mw
