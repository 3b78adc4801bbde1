#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "dist_run.hpp"
#include "dls/chunk_sequence.hpp"
#include "exec/batch.hpp"
#include "pool/executor.hpp"
#include "runs.hpp"
#include "serial.hpp"
#include "simx/event_queue.hpp"
#include "sweep/record.hpp"
#include "trace.hpp"
#include "workload/random_source.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(SpanKind::kCount);
/// Traced (and as many untraced) passes per run at least.
constexpr std::size_t kMinPasses = 3;

std::size_t at(SpanKind kind) { return static_cast<std::size_t>(kind); }

/// Self time, count and allocations per span kind over one pass.
struct PassStats {
  std::array<double, kKinds> self_ns{};
  std::array<double, kKinds> count{};
  std::array<double, kKinds> allocs{};
  std::vector<double> mw_measure_allocs;
  double wall_ns = 0.0;
  double coverage = 0.0;
};

PassStats analyze(const std::vector<Span>& spans, const std::vector<std::int64_t>& self,
                  std::size_t begin, std::size_t end) {
  PassStats stats;
  double covered = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t k = at(spans[i].kind);
    stats.self_ns[k] += static_cast<double>(self[i]);
    stats.count[k] += 1.0;
    stats.allocs[k] += static_cast<double>(spans[i].allocs);
    if (on_end_to_end_path(spans[i].kind)) covered += static_cast<double>(self[i]);
    if (spans[i].kind == SpanKind::kMeasureMw) {
      stats.mw_measure_allocs.push_back(static_cast<double>(spans[i].allocs));
    }
  }
  stats.wall_ns = static_cast<double>(spans[begin].end_ns - spans[begin].start_ns);
  stats.coverage = covered / stats.wall_ns;
  return stats;
}

/// Median over passes of f(pass).
template <typename F>
double over_passes(const std::vector<PassStats>& passes, F f) {
  std::vector<double> values;
  for (const PassStats& pass : passes) values.push_back(f(pass));
  return median(values);
}

std::unique_ptr<workload::RandomSource> replica_rng(const mw::Config& config) {
  // The same source the simulators seed their task-time draws from.
  if (config.use_rand48) {
    return std::make_unique<workload::Rand48Source>(static_cast<std::uint32_t>(config.seed));
  }
  return std::make_unique<workload::XoshiroSource>(config.seed);
}

/// simx::CalendarQueue in the hold model: `pending` events in the
/// queue, each step pops the earliest and pushes a successor an
/// exponential(1) delay later.  Returns ns per push+pop pair.
double queue_pushpop_ns(std::size_t pending, std::uint64_t seed, std::size_t steps) {
  workload::XoshiroSource rng(seed);
  simx::CalendarQueue queue;
  std::uint64_t seq = 0;
  const auto delay = [&rng] { return -std::log1p(-rng.uniform01()); };
  for (std::size_t i = 0; i < pending; ++i) {
    simx::Event event;
    event.time = delay();
    event.seq = seq++;
    queue.push(event);
  }
  const auto hold = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      simx::Event event = queue.pop();
      event.time += delay();
      event.seq = seq++;
      queue.push(event);
    }
  };
  hold(steps);  // reach the steady-state bucket layout
  std::vector<double> per_step;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t t = now_ns();
    hold(steps);
    per_step.push_back(static_cast<double>(now_ns() - t) / static_cast<double>(steps));
  }
  return median(per_step);
}

}  // namespace

void run_traced(const Options& options, Report& report) {
  const Workload workload = make_workload(options.workload, options.seed, options.smoke);
  SerialRunner serial(workload, options.dir);
  const sweep::Grid& grid = serial.grid();

  // Warm-up pass (engines, page cache); its records are the reference.
  Tracer off(false);
  const SerialPass reference = serial.run(off, /*keep_replicas=*/true);
  check_digest(options, reference.records, report);
  report.check(workload.name + " width-" + std::to_string(kPoolWidth) +
                   " in-process records vs the serial records",
               run_in_process(workload, options.dir).records, reference.records);

  // Alternate untraced and traced passes for the run's duration.
  Tracer traced(true);
  std::vector<std::size_t> roots;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  const std::size_t min_passes = options.smoke ? 1 : kMinPasses;
  const std::int64_t start = now_ns();
  while (traced_s.size() < min_passes || seconds_since(start) < options.seconds) {
    const SerialPass plain = serial.run(off, false);
    untraced_s.push_back(static_cast<double>(plain.end_ns - plain.start_ns) / 1e9);
    report.check("untraced pass vs the reference", plain.records, reference.records);
    roots.push_back(traced.spans().size());
    const SerialPass pass = serial.run(traced, false);
    traced_s.push_back(static_cast<double>(pass.end_ns - pass.start_ns) / 1e9);
    report.check("traced pass vs the reference", pass.records, reference.records);
  }
  roots.push_back(traced.spans().size());

  // Attribution replays: pieces of `measure` re-run on their own.  Their
  // times are the replay spans' self times (below).
  double tasks[2] = {0.0, 0.0};  // [mw, hagerup]
  double chunks[2] = {0.0, 0.0};
  double sequence_chunks = 0.0;
  bool grid_runs_hagerup = false;
  for (const ReplicaRun& r : reference.replicas) grid_runs_hagerup |= r.backend == "hagerup";
  {
    const Scope root(traced, SpanKind::kReplay);
    std::vector<double> buffer;
    {
      const auto rng = replica_rng(reference.replicas.front().config);
      reference.replicas.front().config.workload->generate_into(
          buffer, reference.replicas.front().config.tasks, *rng);
    }
    std::set<std::size_t> sequenced;
    for (const ReplicaRun& r : reference.replicas) {
      const int b = r.backend == "hagerup" ? 1 : 0;
      const auto rng = replica_rng(r.config);
      {
        const Scope span(traced, SpanKind::kReplayGenerate, r.cell);
        r.config.workload->generate_into(buffer, r.config.tasks, *rng);
      }
      tasks[b] += static_cast<double>(r.config.tasks);
      chunks[b] += r.chunks;
      if (b == 0 && sequenced.insert(r.cell).second) {
        dls::Params params = r.config.params;
        params.p = r.config.workers;
        params.n = r.config.tasks;
        const auto technique = dls::make_technique(r.config.technique, params);
        const Scope span(traced, SpanKind::kReplayChunks, r.cell);
        sequence_chunks += static_cast<double>(dls::chunk_sequence(*technique).size());
      }
      if (b == 0 && !grid_runs_hagerup) {
        exec::Backend& hagerup = serial.backend("hagerup");
        const Scope span(traced, SpanKind::kReplayHagerup, r.cell);
        (void)hagerup.measure(r.config);
      }
    }
  }

  const std::vector<Span>& spans = traced.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<PassStats> passes;
  for (std::size_t p = 0; p + 1 < roots.size(); ++p) {
    passes.push_back(analyze(spans, self, roots[p], roots[p + 1]));
  }
  // The replay spans begin in replica order, so the k-th generate span
  // belongs to reference.replicas[k].
  double gen_ns[2] = {0.0, 0.0};  // [mw, hagerup]
  double sequence_ns = 0.0;
  double replay_hagerup_ns = 0.0;
  std::size_t generated = 0;
  for (std::size_t i = roots.back(); i < spans.size(); ++i) {
    const auto ns = static_cast<double>(self[i]);
    if (spans[i].kind == SpanKind::kReplayGenerate) {
      gen_ns[reference.replicas[generated++].backend == "hagerup" ? 1 : 0] += ns;
    } else if (spans[i].kind == SpanKind::kReplayChunks) {
      sequence_ns += ns;
    } else if (spans[i].kind == SpanKind::kReplayHagerup) {
      replay_hagerup_ns += ns;
    }
  }
  const PassStats& last = passes.back();
  const double records = last.count[at(SpanKind::kRender)];
  const double cells = last.count[at(SpanKind::kExpand)];
  const std::string np = "median of " + std::to_string(passes.size()) + " traced passes";
  const auto per = [&](SpanKind kind, double denominator, double scale) {
    return over_passes(passes, [&](const PassStats& s) {
      return s.self_ns[at(kind)] / denominator / scale;
    });
  };
  const double measure_mw_ns = per(SpanKind::kMeasureMw, 1.0, 1.0);
  const double measure_hagerup_ns = per(SpanKind::kMeasureHagerup, 1.0, 1.0);

  // mw
  report.metric("mw.serve_ns_per_chunk", (measure_mw_ns - gen_ns[0]) / chunks[0], "ns",
                "(measure - generation replay) / " + format_number(chunks[0]) + " chunks, " +
                    np);
  {
    std::map<std::size_t, const ReplicaRun*> by_workers;
    for (const ReplicaRun& r : reference.replicas) {
      if (r.backend == "mw") by_workers.emplace(r.config.workers, &r);
    }
    exec::Backend& mw_backend = serial.backend("mw");
    double largest = 0.0;
    std::string per_count;
    for (const auto& [workers, replica] : by_workers) {
      mw::Config config = replica->config;
      config.tasks = workers;
      (void)mw_backend.measure(config);
      std::vector<double> us;
      for (int i = 0; i < 15; ++i) {
        const std::int64_t t = now_ns();
        (void)mw_backend.measure(config);
        us.push_back(static_cast<double>(now_ns() - t) / 1e3);
      }
      largest = median(us);
      per_count += " " + std::to_string(workers) + ":" + format_number(largest);
    }
    report.metric("mw.replica_setup_us", largest, "us",
                  "measure at tasks = workers, largest worker count, median of 15; by "
                  "workers:" + per_count);
  }
  report.metric("mw.allocs_per_replica", median(last.mw_measure_allocs), "count",
                "operator new per mw measure, median of " +
                    std::to_string(last.mw_measure_allocs.size()) +
                    " in the last traced pass (repeats exactly)");

  // simx
  std::size_t pending = 0;
  for (const ReplicaRun& r : reference.replicas) pending = std::max(pending, r.config.workers);
  report.metric("simx.queue_pushpop_ns",
                queue_pushpop_ns(pending, options.seed, options.smoke ? 2000 : 400000), "ns",
                "CalendarQueue hold model at " + std::to_string(pending) +
                    " pending events, median of 5 rounds");

  // core, workload, hagerup
  report.metric("core.next_chunk_ns", sequence_ns / sequence_chunks, "ns",
                "chunk_sequence replay over " + format_number(sequence_chunks) + " chunks");
  report.metric("workload.generate_ns_per_task", (gen_ns[0] + gen_ns[1]) / (tasks[0] + tasks[1]),
                "ns", "generate_into replay over " + format_number(tasks[0] + tasks[1]) + " tasks");
  report.metric("workload.share",
                (gen_ns[0] + gen_ns[1]) / (measure_mw_ns + measure_hagerup_ns), "ratio",
                "generation replay / measure time, " + np);
  if (grid_runs_hagerup) {
    report.metric("hagerup.ns_per_task", (measure_hagerup_ns - gen_ns[1]) / tasks[1], "ns",
                  "(measure - generation replay) / " + format_number(tasks[1]) + " tasks, " + np);
  } else {
    report.metric("hagerup.ns_per_task", (replay_hagerup_ns - gen_ns[0]) / tasks[0], "ns",
                  "hagerup replay of the mw replicas, minus generation");
  }

  // pool and exec, at the benchmark's pool width
  {
    pool::Executor executor(kPoolWidth);
    executor.reserve(kPoolWidth);
    const unsigned slot_count = executor.slot_count();
    std::vector<std::map<std::string, std::unique_ptr<exec::Backend>, std::less<>>> slots(
        slot_count);
    std::vector<std::int64_t> busy(slot_count, 0);
    const std::vector<ReplicaRun>& replicas = reference.replicas;
    const auto measure_body = [&](std::size_t i, unsigned slot) {
      auto& cache = slots[slot];
      auto it = cache.find(replicas[i].backend);
      if (it == cache.end()) {
        it = cache.emplace(replicas[i].backend, exec::make_backend(replicas[i].backend)).first;
      }
      const std::int64_t t = now_ns();
      (void)it->second->measure(replicas[i].config);
      busy[slot] += now_ns() - t;
    };
    std::vector<exec::BatchJob> jobs;
    for (std::size_t i = 0; i < grid.cells(); ++i) {
      jobs.push_back(sweep::batch_job(grid, sweep::cell(grid, i)));
    }
    exec::BatchRunner::Options batch_options;
    batch_options.threads = kPoolWidth;
    batch_options.executor = &executor;
    const exec::BatchRunner batch(batch_options);

    // Alternate the measure region and the batch run, so both see the
    // same host state; round 0 warms the per-slot engines of both.
    constexpr int kRounds = 5;
    std::vector<double> busy_frac;
    std::vector<double> batch_overhead;
    for (int round = 0; round <= kRounds; ++round) {
      std::fill(busy.begin(), busy.end(), 0);
      std::int64_t t = now_ns();
      executor.parallel_for_slots(replicas.size(), measure_body, kPoolWidth, 1, slot_count);
      const auto wall = static_cast<double>(now_ns() - t);
      double total = 0.0;
      for (const std::int64_t b : busy) total += static_cast<double>(b);
      t = now_ns();
      (void)batch.run(jobs);
      const auto batch_wall = static_cast<double>(now_ns() - t);
      if (round == 0) continue;
      busy_frac.push_back(total / (wall * kPoolWidth));
      batch_overhead.push_back((batch_wall - total / kPoolWidth) / batch_wall);
    }
    const std::string rounds = ", median of " + std::to_string(kRounds);
    report.metric("pool.busy_frac", median(busy_frac), "ratio",
                  "parallel_for_slots around measure over " + std::to_string(replicas.size()) +
                      " replicas, width " + std::to_string(kPoolWidth) + rounds);
    report.metric("exec.batch_overhead_frac", median(batch_overhead), "ratio",
                  "(BatchRunner::run wall - measure time / width) / wall" + rounds);

    std::vector<double> claim_ns;
    const std::int64_t claim_start = now_ns();
    while (claim_ns.size() < 50 ||
           (claim_ns.size() < 5000 && seconds_since(claim_start) < 0.05)) {
      const std::int64_t t = now_ns();
      executor.parallel_for_slots(replicas.size(), [](std::size_t, unsigned) {}, kPoolWidth, 1,
                                  slot_count);
      claim_ns.push_back(static_cast<double>(now_ns() - t) /
                         static_cast<double>(replicas.size()));
    }
    report.metric("pool.claim_ns", median(claim_ns), "ns",
                  "empty-body region per index, median of " + std::to_string(claim_ns.size()));
  }

  // stats, sweep
  report.metric("stats.summarize_us_per_cell", per(SpanKind::kSummarize, cells, 1e3), "us", np);
  report.metric("sweep.expand_us_per_cell", per(SpanKind::kExpand, cells, 1e3), "us", np);
  report.metric("sweep.render_us_per_record", per(SpanKind::kRender, records, 1e3), "us", np);
  report.metric("sweep.append_us_per_record", per(SpanKind::kAppend, records, 1e3), "us", np);
  report.metric("sweep.commit_ms",
                per(SpanKind::kCommit, last.count[at(SpanKind::kCommit)], 1e6), "ms",
                np + ", per shard file");
  double record_bytes = 0.0;
  for (const std::string& record : reference.records) {
    record_bytes += static_cast<double>(record.size() + 1);
  }
  report.metric("sweep.record_bytes", record_bytes / records, "bytes",
                format_number(records) + " records");
  report.metric("sweep.allocs_per_record",
                (last.allocs[at(SpanKind::kRender)] + last.allocs[at(SpanKind::kAppend)]) /
                    records,
                "count",
                "operator new in render + append_line, last traced pass (repeats exactly)");
  report.metric("sweep.scan_us_per_record", per(SpanKind::kScan, records, 1e3), "us", np);
  report.metric("sweep.validate_us_per_record", per(SpanKind::kValidate, records, 1e3), "us", np);
  report.metric("sweep.merge_us_per_record", per(SpanKind::kMerge, records, 1e3), "us", np);

  // dist, net: one distributed run of this workload's grid.
  {
    const DistRun run = run_distributed(workload, options.dir + "/dist");
    report.check(workload.name + " distributed merged output vs the serial records",
                 sweep::merge_records({scan_and_validate(grid, run.out_path)}),
                 reference.records);
    report.operations(run.leases, run.reclaims + run.retries + run.workers_lost,
                      "reclaimed, retried or lost leases");
    report.line("dist worker_peak_rss_mb " + format_number(run.worker_peak_rss_mb) +
                " MB (largest dls_sweep work process)");
    const std::string leases = std::to_string(run.lease_ms.size()) + " stripes";
    report.metric("dist.ready_ms", median(run.ready_ms), "ms",
                  "spawn to READY, median of " + std::to_string(run.ready_ms.size()) + " workers");
    report.metric("dist.lease_ms_p50", median(run.lease_ms), "ms", "lease to done, " + leases);
    report.tail_metric("dist.lease_ms_tail", tail(run.lease_ms), "ms", "lease-to-done times");
    report.metric("dist.merge_ms", run.merge_ms, "ms", "last done to complete");
    report.metric("dist.reclaims", static_cast<double>(run.reclaims), "count", "");
    report.metric("dist.retries", static_cast<double>(run.retries), "count", "");
    double fetch_total_ms = 0.0;
    for (const double ms : run.fetch_ms) fetch_total_ms += ms;
    report.metric("net.fetch_ms", median(run.fetch_ms), "ms",
                  "FETCH to done, median of " + std::to_string(run.fetch_ms.size()) + " stripes");
    report.metric("net.fetch_mb_per_s",
                  static_cast<double>(run.merged_bytes) / 1e6 / (fetch_total_ms / 1e3), "MB/s",
                  format_number(static_cast<double>(run.merged_bytes)) +
                      " stripe bytes over the summed FETCH time");
  }

  // trace
  report.metric("trace.coverage",
                over_passes(passes, [](const PassStats& s) { return s.coverage; }), "ratio",
                "self time of end-to-end spans / traced pass wall, " + np);
  report.metric("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0, "ratio",
                "traced / untraced pass wall - 1, medians of " + std::to_string(traced_s.size()) +
                    " each");

  // Where the last traced pass spent its time, by span kind.
  for (std::size_t k = 0; k < at(SpanKind::kReplay); ++k) {
    if (last.count[k] == 0.0) continue;
    report.line("span " + std::string(span_name(static_cast<SpanKind>(k))) + ": " +
                format_number(last.count[k]) + " spans, self " +
                format_number(last.self_ns[k] / 1e6) + " ms (" +
                format_number(std::round(1000.0 * last.self_ns[k] / last.wall_ns) / 10.0) +
                "% of the pass), " + format_number(last.allocs[k]) + " allocations");
  }
  const std::string trace_path = options.dir + "/trace-" + workload.name + ".tsv";
  write_spans(trace_path, spans);
  report.line("spans written to " + trace_path + " (" + std::to_string(spans.size()) + ")");
}

}  // namespace perfbench
