#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Allocations (every global operator new variant) made so far by the
/// calling thread -- counted by the benchmark binary's own hook
/// (alloc_hook.cpp).
[[nodiscard]] std::uint64_t thread_allocs() noexcept;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// What a span times.  The first group wraps the calls the end-to-end
/// sweep path makes (trace.coverage sums their self time); replay spans
/// re-run a piece of `measure` on its own only to attribute its time,
/// and stay out of the coverage.
enum class SpanKind : std::uint8_t {
  kPass,            // one serial pass over the grid (write + read phase)
  kExpand,          // sweep::cell + sweep::batch_job
  kMeasureMw,       // exec::Backend("mw")::measure
  kMeasureHagerup,  // exec::Backend("hagerup")::measure
  kSummarize,       // stats::summarize of the four replica series
  kRender,          // sweep::RecordRenderer::render
  kAppend,          // sweep::ShardWriter::append_line
  kCommit,          // sweep::ShardWriter::commit
  kScan,            // sweep::scan_records
  kValidate,        // sweep::validate_records_for_grid
  kMerge,           // sweep::merge_records
  kReplay,          // root of the attribution replays
  kReplayGenerate,  // workload::TaskTimeGenerator::generate_into
  kReplayChunks,    // dls::chunk_sequence
  kReplayHagerup,   // exec::Backend("hagerup")::measure on an mw cell
  kCount
};

[[nodiscard]] const char* span_name(SpanKind kind);
/// Whether the kind wraps a call of the end-to-end path.
[[nodiscard]] bool on_end_to_end_path(SpanKind kind);

struct Span {
  static constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kNoCell = std::numeric_limits<std::uint64_t>::max();
  SpanKind kind = SpanKind::kPass;
  std::uint32_t parent = kNoParent;
  std::uint64_t cell = kNoCell;  ///< full grid cell index, if the span is per cell
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< allocations inside the span, children included
};

/// In-memory span recorder for one thread.  Spans nest by a stack: a
/// span begun while another is open becomes its child.  A disabled
/// tracer records nothing (begin returns kNoParent and end ignores
/// it), so the traced and untraced runs execute the same code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  std::uint32_t begin(SpanKind kind, std::uint64_t cell = Span::kNoCell);
  void end(std::uint32_t id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t own_allocs_ = 0;  ///< allocations of the recorder itself
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, SpanKind kind, std::uint64_t cell = Span::kNoCell)
      : tracer_(tracer), id_(tracer.begin(kind, cell)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span), so children that overlap
/// each other -- spans recorded on several threads -- count once.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Write the spans as TSV (name, start_ns, end_ns, parent, cell,
/// allocs; -1 for "none").  Throws std::runtime_error on I/O failure.
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
