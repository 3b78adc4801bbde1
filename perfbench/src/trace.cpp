#include "trace.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

const char* span_name(SpanKind kind) {
  static constexpr std::array<const char*, static_cast<std::size_t>(SpanKind::kCount)> kNames = {
      "pass",      "expand", "measure.mw", "measure.hagerup", "summarize",
      "render",    "append", "commit",     "scan",            "validate",
      "merge",     "replay", "replay.generate", "replay.chunk_sequence", "replay.hagerup"};
  return kNames[static_cast<std::size_t>(kind)];
}

bool on_end_to_end_path(SpanKind kind) {
  return kind != SpanKind::kPass && kind < SpanKind::kReplay;
}

std::uint32_t Tracer::begin(SpanKind kind, std::uint64_t cell) {
  if (!enabled_) return Span::kNoParent;
  const std::uint64_t before = thread_allocs();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.kind = kind;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  span.cell = cell;
  spans_.push_back(span);
  open_.push_back(id);
  // The recorder's own vector growth is not the traced code's.
  own_allocs_ += thread_allocs() - before;
  spans_[id].allocs = thread_allocs() - own_allocs_;
  spans_[id].start_ns = now_ns();
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (id == Span::kNoParent) return;
  const std::int64_t t = now_ns();
  Span& span = spans_[id];
  span.end_ns = t;
  span.allocs = thread_allocs() - own_allocs_ - span.allocs;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == Span::kNoParent || span.parent >= spans.size()) continue;
    const Span& parent = spans[span.parent];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (lo < hi) children[span.parent].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "name\tstart_ns\tend_ns\tparent\tcell\tallocs\n";
  for (const Span& span : spans) {
    out << span_name(span.kind) << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
        << (span.parent == Span::kNoParent ? -1 : static_cast<std::int64_t>(span.parent))
        << '\t'
        << (span.cell == Span::kNoCell ? -1 : static_cast<std::int64_t>(span.cell)) << '\t'
        << span.allocs << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("perfbench: cannot write the span file " + path);
}

}  // namespace perfbench
