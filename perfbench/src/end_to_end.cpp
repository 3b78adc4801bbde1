#include <sys/resource.h>

#include <algorithm>

#include "pool/executor.hpp"
#include "runs.hpp"
#include "serial.hpp"
#include "sweep/record.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard_io.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// Passes timed per process at least, whatever --seconds says, so each
/// median has a middle.
constexpr std::size_t kMinPasses = 3;

/// "median of n passes, quartiles q1 .. q3" -- the run's noise estimate.
std::string spread_note(const std::vector<double>& samples, const std::string& what = "passes") {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto quartile = [&](std::size_t q) { return sorted[(sorted.size() - 1) * q / 4]; };
  return "median of " + std::to_string(sorted.size()) + " " + what + ", quartiles " +
         format_number(quartile(1)) + " .. " + format_number(quartile(3));
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Call `once`, which returns how long its timed part took in ns, back
/// to back at least kMinRepeats times and for at least kMinRepeatS
/// seconds; returns the mean in seconds.
template <typename F>
double mean_repeat_s(F once) {
  std::int64_t timed_ns = 0;
  std::size_t count = 0;
  const std::int64_t start = now_ns();
  while (count < kMinRepeats || seconds_since(start) < kMinRepeatS) {
    timed_ns += once();
    ++count;
  }
  return static_cast<double>(timed_ns) / 1e9 / static_cast<double>(count);
}

}  // namespace

InProcessRep run_in_process(const Workload& workload, const std::string& dir) {
  InProcessRep rep;
  sweep::Grid grid;
  std::vector<sweep::SweepRunner> runners;
  rep.setup_s = mean_repeat_s([&] {
    grid = sweep::Grid{};
    runners.clear();
    const std::int64_t t0 = now_ns();
    grid = sweep::parse_grid(workload.spec);
    for (std::size_t shard = 0; shard < workload.shards; ++shard) {
      sweep::SweepRunner::Options options;
      options.threads = kPoolWidth;
      options.shard_index = shard;
      options.shard_count = workload.shards;
      runners.emplace_back(options);
    }
    pool::Executor::shared().reserve(kPoolWidth);
    return now_ns() - t0;
  });
  const std::int64_t t1 = now_ns();
  std::vector<std::string> paths;

  for (std::size_t shard = 0; shard < workload.shards; ++shard) {
    paths.push_back(dir + "/shard-" + std::to_string(shard) + ".jsonl");
    sweep::ShardWriter writer(paths.back());
    std::vector<double>& gaps = rep.shard_gaps_ms.emplace_back();
    std::int64_t last = now_ns();
    const auto observer = [&](const sweep::SweepRunner::CellEvent& event) {
      if (event.skipped) return;
      const std::int64_t t = now_ns();
      gaps.push_back(static_cast<double>(t - last) / 1e6);
      last = t;
    };
    (void)runners[shard].run(grid, {}, writer.stream(), observer);
    writer.commit();
  }
  rep.wall_s = seconds_since(t1);

  rep.read_s = mean_repeat_s([&] {
    const std::int64_t t0 = now_ns();
    std::vector<std::vector<std::string>> shards;
    for (const std::string& path : paths) shards.push_back(scan_and_validate(grid, path));
    rep.records = sweep::merge_records(shards);
    return now_ns() - t0;
  });
  return rep;
}

void check_digest(const Options& options, const std::vector<std::string>& records,
                  Report& report) {
  const std::string digest = records_digest(records);
  report.line("records digest " + digest + " (" + std::to_string(records.size()) +
              " records, seed " + std::to_string(options.seed) + ")");
  if (options.smoke || options.seed != kDefaultSeed) return;
  const auto committed = committed_digest(options.workload);
  if (!committed) {
    report.operations(1, 1, "no committed digest for " + options.workload);
  } else {
    report.operations(1, *committed == digest ? 0 : 1,
                      "records digest " + digest + " != committed " + *committed);
  }
}

void run_end_to_end(const Options& options, Report& report) {
  const Workload workload = make_workload(options.workload, options.seed, options.smoke);

  // The reference: the serial decomposition's records (untimed).
  SerialRunner serial(workload, options.dir);
  Tracer off(false);
  const SerialPass reference = serial.run(off, /*keep_replicas=*/true);
  check_digest(options, reference.records, report);
  double chunks = 0.0;
  for (const ReplicaRun& replica : reference.replicas) chunks += replica.chunks;
  const auto runs = static_cast<double>(reference.replicas.size());

  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> read_s;
  std::vector<std::vector<double>> gaps_ms;  // per shard write

  const auto one_rep = [&](bool keep) {
    const InProcessRep rep = run_in_process(workload, options.dir);
    report.check(workload.name + " width-" + std::to_string(kPoolWidth) +
                     " records vs the serial records",
                 rep.records, reference.records);
    if (!keep) return;
    setup_s.push_back(rep.setup_s);
    wall_s.push_back(rep.wall_s);
    read_s.push_back(rep.read_s);
    gaps_ms.insert(gaps_ms.end(), rep.shard_gaps_ms.begin(), rep.shard_gaps_ms.end());
  };

  one_rep(/*keep=*/false);  // warm-up: pool threads, page cache, lazy set-up
  const std::int64_t start = now_ns();
  const std::size_t min_passes = options.smoke ? 1 : kMinPasses;
  while (wall_s.size() < min_passes || seconds_since(start) < options.seconds) one_rep(true);

  std::vector<double> runs_per_s;
  std::vector<double> chunks_per_s;
  for (const double w : wall_s) {
    runs_per_s.push_back(runs / w);
    chunks_per_s.push_back(chunks / w);
  }
  report.metric("setup_s", median(setup_s), "s",
                spread_note(setup_s) + ", each the mean of back-to-back set-ups");
  report.metric("wall_s", median(wall_s), "s", spread_note(wall_s));
  // Printed, not a bounded metric: on ss_serve (3 records) and
  // bold_n524288 (42) the read phase takes 0.1-2 ms, and on ss_serve its
  // median moved 55% when the host changed state within one ten-seed set.
  report.line("read_s " + format_number(median(read_s)) + " s (" + spread_note(read_s) +
              ", each the mean of back-to-back read phases; not bounded)");
  report.metric("runs_per_s", median(runs_per_s), "1/s",
                spread_note(runs_per_s) + ", " + format_number(runs) + " replicas per pass");
  report.metric("chunks_per_s", median(chunks_per_s), "1/s",
                spread_note(chunks_per_s) + ", " + format_number(chunks) + " chunks per pass");
  const std::string gap_what = "gaps between committed records";
  std::vector<double> pooled_gaps_ms;
  for (const auto& write : gaps_ms) {
    pooled_gaps_ms.insert(pooled_gaps_ms.end(), write.begin(), write.end());
  }
  report.metric("cell_p50_ms", median(pooled_gaps_ms), "ms",
                "median of " + std::to_string(pooled_gaps_ms.size()) + " " + gap_what);
  // The tail is taken per shard write: a host stall of a millisecond
  // dwarfs the 0.03 ms gaps of grid_resume, and a shorter window needs
  // more stalls in it before they reach its 10 largest gaps.
  report.tail_metric("cell_tail_ms", pass_tail(gaps_ms), "ms", gap_what, "shard write");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", "benchmark process");
  report.line("fail_frac " + format_number(report.fail_frac()) +
              " ratio (failed / attempted operations, as on the result line)");
}

}  // namespace perfbench
