#include "serial.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "exec/batch.hpp"
#include "stats/summary.hpp"
#include "sweep/record.hpp"
#include "sweep/shard_io.hpp"
#include "sweep/stripe.hpp"

namespace perfbench {

SerialRunner::SerialRunner(const Workload& workload, std::string dir)
    : shards_(workload.shards), grid_(sweep::parse_grid(workload.spec)), dir_(std::move(dir)) {}

exec::Backend& SerialRunner::backend(const std::string& name) {
  auto it = backends_.find(name);
  if (it == backends_.end()) it = backends_.emplace(name, exec::make_backend(name)).first;
  return *it->second;
}

SerialPass SerialRunner::run(Tracer& tracer, bool keep_replicas) {
  SerialPass pass;
  pass.start_ns = now_ns();
  const Scope pass_span(tracer, SpanKind::kPass);
  const sweep::RecordRenderer renderer(grid_);
  std::vector<std::string> paths;

  // Write phase.
  std::vector<double> makespan;
  std::vector<double> wasted;
  std::vector<double> speedup;
  std::vector<double> chunks;
  for (std::size_t shard = 0; shard < shards_; ++shard) {
    paths.push_back(dir_ + "/serial-" + std::to_string(shard) + ".jsonl");
    sweep::ShardWriter writer(paths.back());
    sweep::for_each_owned_index(grid_, shard, shards_, [&](std::size_t index) {
      sweep::Cell cell;
      exec::BatchJob job;
      {
        const Scope span(tracer, SpanKind::kExpand, index);
        cell = sweep::cell(grid_, index);
        job = sweep::batch_job(grid_, cell);
      }
      exec::Backend& vehicle = backend(job.backend);
      const SpanKind measure_kind =
          job.backend == "hagerup" ? SpanKind::kMeasureHagerup : SpanKind::kMeasureMw;
      makespan.resize(job.replicas);
      wasted.resize(job.replicas);
      speedup.resize(job.replicas);
      chunks.resize(job.replicas);
      for (std::size_t r = 0; r < job.replicas; ++r) {
        mw::Config config = job.config;
        config.seed = job.config.seed + job.seed_stride * r;
        exec::Measured measured;
        {
          const Scope span(tracer, measure_kind, index);
          measured = vehicle.measure(config);
        }
        makespan[r] = measured.makespan;
        wasted[r] = measured.avg_wasted_time;
        speedup[r] = measured.speedup;
        chunks[r] = measured.chunks;
        if (keep_replicas) {
          pass.replicas.push_back(ReplicaRun{index, job.backend, config, measured.chunks});
        }
      }
      exec::BatchResult result;
      {
        const Scope span(tracer, SpanKind::kSummarize, index);
        result.makespan = stats::summarize(makespan);
        result.avg_wasted_time = stats::summarize(wasted);
        result.speedup = stats::summarize(speedup);
        result.chunks = stats::summarize(chunks);
      }
      std::string line;
      {
        const Scope span(tracer, SpanKind::kRender, index);
        line = renderer.render(cell, job, result);
      }
      {
        const Scope span(tracer, SpanKind::kAppend, index);
        writer.append_line(line);
      }
      return true;
    });
    const Scope span(tracer, SpanKind::kCommit);
    writer.commit();
  }

  // Read phase: what --resume and merge do with the files.
  std::vector<std::vector<std::string>> shard_lines;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("perfbench: cannot reopen " + path);
    sweep::ScanResult scanned;
    {
      const Scope span(tracer, SpanKind::kScan);
      scanned = sweep::scan_records(in);
    }
    {
      const Scope span(tracer, SpanKind::kValidate);
      sweep::validate_records_for_grid(grid_, scanned.lines);
    }
    shard_lines.push_back(std::move(scanned.lines));
  }
  {
    const Scope span(tracer, SpanKind::kMerge);
    pass.records = sweep::merge_records(shard_lines);
  }
  pass.end_ns = now_ns();
  return pass;
}

std::vector<std::string> scan_and_validate(const sweep::Grid& grid, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perfbench: cannot open " + path);
  sweep::ScanResult scanned = sweep::scan_records(in);
  if (scanned.dropped_partial_tail) {
    throw std::runtime_error("perfbench: " + path + " ends in a truncated record");
  }
  sweep::validate_records_for_grid(grid, scanned.lines);
  return std::move(scanned.lines);
}

}  // namespace perfbench
