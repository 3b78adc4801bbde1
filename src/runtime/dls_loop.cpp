#include "runtime/dls_loop.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace runtime {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

DlsLoopExecutor::DlsLoopExecutor(Options options)
    : options_(std::move(options)),
      threads_(options_.threads != 0 ? options_.threads : std::thread::hardware_concurrency()) {
  if (threads_ == 0) threads_ = 1;
}

DlsLoopExecutor::~DlsLoopExecutor() = default;

LoopStats DlsLoopExecutor::run(std::size_t n,
                               const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) throw std::invalid_argument("DlsLoopExecutor::run: empty loop");
  if (!body) throw std::invalid_argument("DlsLoopExecutor::run: missing body");

  if (technique_ && technique_n_ == n) {
    technique_->start_new_timestep();  // adaptive state persists
  } else {
    dls::Params params = options_.params;
    params.p = threads_;
    params.n = n;
    technique_ = dls::make_technique(options_.technique, params);
    technique_n_ = n;
    loop_count_ = 0;
  }
  ++loop_count_;

  LoopStats stats;
  stats.tasks_per_thread.assign(threads_, 0);
  stats.chunks_per_thread.assign(threads_, 0);
  stats.busy_seconds_per_thread.assign(threads_, 0.0);

  std::mutex dispatcher_mutex;  // guards technique_ and next_index
  std::size_t next_index = 0;
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  const Clock::time_point loop_start = Clock::now();

  auto worker = [&](std::size_t thread_id) {
    double pending_exec = 0.0;
    std::size_t pending_size = 0;
    for (;;) {
      std::size_t begin = 0;
      std::size_t size = 0;
      {
        const std::scoped_lock lock(dispatcher_mutex);
        if (pending_size > 0) {
          technique_->on_chunk_complete(dls::ChunkFeedback{
              thread_id, pending_size, pending_exec, seconds_since(loop_start)});
          pending_size = 0;
        }
        if (failed.load(std::memory_order_relaxed)) return;
        size = technique_->next_chunk(dls::Request{thread_id, seconds_since(loop_start)});
        if (size == 0) return;
        begin = next_index;
        next_index += size;
        if (options_.record_chunk_log) {
          stats.chunk_log.push_back(dls::ChunkRecord{thread_id, begin, size});
        }
      }
      const Clock::time_point chunk_start = Clock::now();
      try {
        body(begin, begin + size);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      pending_exec = seconds_since(chunk_start);
      pending_size = size;
      stats.tasks_per_thread[thread_id] += size;
      stats.chunks_per_thread[thread_id] += 1;
      stats.busy_seconds_per_thread[thread_id] += pending_exec;
    }
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t) pool.emplace_back(worker, t);
  }  // join

  if (error) std::rethrow_exception(error);

  stats.wall_seconds = seconds_since(loop_start);
  for (std::size_t c : stats.chunks_per_thread) stats.chunks += c;
  return stats;
}

void DlsLoopExecutor::reset() {
  technique_.reset();
  technique_n_ = 0;
  loop_count_ = 0;
}

LoopStats DlsLoopExecutor::run_indexed(std::size_t n,
                                       const std::function<void(std::size_t)>& body) {
  return run(n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

LoopStats parallel_for_dls(dls::Kind technique, std::size_t n,
                           const std::function<void(std::size_t)>& body, unsigned threads,
                           const dls::Params& params) {
  DlsLoopExecutor::Options options;
  options.technique = technique;
  options.params = params;
  options.threads = threads;
  DlsLoopExecutor executor(std::move(options));
  return executor.run_indexed(n, body);
}

}  // namespace runtime
