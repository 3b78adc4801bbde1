#include "hagerup/simulator.hpp"

#include <queue>
#include <stdexcept>
#include <string>

#include "dls/technique.hpp"
#include "workload/random_source.hpp"

namespace hagerup {
namespace {

struct FreeEvent {
  double time = 0.0;
  std::size_t worker = 0;
  std::size_t done_size = 0;   ///< chunk just finished (0 on first request)
  double done_exec = 0.0;
};

struct Later {
  bool operator()(const FreeEvent& a, const FreeEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.worker > b.worker;  // deterministic tie-break
  }
};

}  // namespace

RunResult run(const Config& config) {
  if (!config.workload) throw std::invalid_argument("Config.workload is not set");
  const std::unique_ptr<workload::RandomSource> rng =
      workload::make_source(config.seed, config.use_rand48);
  workload::TaskDraw draw;
  config.workload->draw(draw, config.tasks, *rng, kDrawParts);
  return run(config, draw);
}

RunResult run(const Config& config, const workload::TaskDraw& draw) {
  if (config.pes == 0) throw std::invalid_argument("Config.pes must be >= 1");
  if (config.tasks == 0) throw std::invalid_argument("Config.tasks must be >= 1");
  if (!workload::includes(draw.parts, kDrawParts) || draw.times.size() != config.tasks) {
    throw std::invalid_argument("hagerup::run: a draw of " + std::to_string(draw.times.size()) +
                                " task times (with their total) for " +
                                std::to_string(config.tasks) + " tasks");
  }
  const std::vector<double>& task_times = draw.times;

  dls::Params params = config.params;
  params.p = config.pes;
  params.n = config.tasks;
  const auto technique = dls::make_technique(config.technique, params);

  RunResult result;
  result.compute_time.assign(config.pes, 0.0);
  result.chunks.assign(config.pes, 0);
  result.total_work = draw.total;

  std::priority_queue<FreeEvent, std::vector<FreeEvent>, Later> queue;
  for (std::size_t w = 0; w < config.pes; ++w) queue.push(FreeEvent{0.0, w, 0, 0.0});

  std::size_t next_task = 0;
  double makespan = 0.0;
  while (!queue.empty()) {
    const FreeEvent ev = queue.top();
    queue.pop();
    makespan = std::max(makespan, ev.time);
    if (ev.done_size > 0) {
      technique->on_chunk_complete(
          dls::ChunkFeedback{ev.worker, ev.done_size, ev.done_exec, ev.time});
    }
    const std::size_t chunk = technique->next_chunk(dls::Request{ev.worker, ev.time});
    if (chunk == 0) continue;  // worker retires
    double exec = 0.0;
    for (std::size_t i = next_task; i < next_task + chunk; ++i) exec += task_times[i];
    if (config.record_chunk_log) {
      result.chunk_log.push_back(dls::ChunkRecord{ev.worker, next_task, chunk, ev.time, exec});
    }
    next_task += chunk;
    ++result.chunk_count;
    ++result.chunks[ev.worker];
    result.compute_time[ev.worker] += exec;
    const double overhead = config.charge_overhead_inline ? config.params.h : 0.0;
    queue.push(FreeEvent{ev.time + overhead + exec, ev.worker, chunk, exec});
  }

  result.makespan = makespan;
  double wasted_sum = 0.0;
  for (double c : result.compute_time) wasted_sum += makespan - c;
  if (!config.charge_overhead_inline) {
    wasted_sum += config.params.h * static_cast<double>(result.chunk_count);
  }
  result.avg_wasted_time = wasted_sum / static_cast<double>(config.pes);
  return result;
}

}  // namespace hagerup
