// Unit checks of the benchmark's own statistics and span accounting;
// run by `python3 perfbench/run.py --self-test`.  Exit status 0 = all
// checks passed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "samples.hpp"
#include "trace.hpp"

namespace {

int failures = 0;
// Escapes the allocation under test, so the compiler cannot elide it.
std::vector<int>* volatile g_sink = nullptr;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span span(std::uint32_t parent, std::int64_t start, std::int64_t end) {
  perfbench::Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_tail_rule() {
  using perfbench::tail;
  // 1..100: rank n - 10 = 90 is the highest with 10 samples above it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  const perfbench::Tail t100 = tail(hundred);
  expect(t100.qualified && near(t100.value, 90.0) && near(t100.percentile, 90.0),
         "tail of 1..100 is p90 = 90");
  // 11 samples: exactly one qualifying rank (the smallest value).
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i * 2.0);
  const perfbench::Tail t11 = tail(eleven);
  expect(t11.qualified && near(t11.value, 2.0) && near(t11.percentile, 100.0 / 11.0),
         "tail of 11 samples is the lowest, with 10 beyond it");
  // 40 samples: rank 30, p75.
  std::vector<double> forty;
  for (int i = 1; i <= 40; ++i) forty.push_back(i);
  const perfbench::Tail t40 = tail(forty);
  expect(near(t40.value, 30.0) && near(t40.percentile, 75.0), "tail of 40 samples is p75");
  std::size_t beyond = 0;
  for (const double v : forty) beyond += v > t40.value ? 1 : 0;
  expect(beyond == perfbench::kTailBeyond, "exactly 10 samples lie beyond the tail");
  // 10 samples or fewer: no percentile qualifies; the median stands in.
  const perfbench::Tail t10 = tail({5, 1, 4, 2, 3, 6, 7, 8, 9, 10});
  expect(!t10.qualified && near(t10.value, 5.5) && near(t10.percentile, 50.0),
         "10 samples fall back to the median");
  // Passes that qualify alone: the median of the per-pass tails, so a
  // hiccup confined to one pass does not move it.
  std::vector<std::vector<double>> passes(3, forty);
  passes[1].back() = 1000.0;
  for (double& v : passes[2]) v += 1.0;
  const perfbench::Tail per_pass = perfbench::pass_tail(passes);
  expect(per_pass.passes == 3 && near(per_pass.value, 30.0) && near(per_pass.percentile, 75.0),
         "per-pass tails are combined by their median");
  // Passes too small for a qualifying percentile contribute their
  // largest sample; one slow pass does not move the median.
  const perfbench::Tail small =
      perfbench::pass_tail({{1, 2, 3}, {4, 5, 60}, {7, 8, 9}, {1, 9, 2}, {30, 40, 50}});
  expect(small.passes == 5 && !small.qualified && near(small.value, 9.0) &&
             near(small.percentile, 100.0) && small.samples == 3,
         "small passes contribute their maximum");
  expect(near(perfbench::median({3, 1, 2}), 2.0), "odd median");
  expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
}

void test_self_time() {
  using perfbench::Span;
  // Parent [0, 100) with children [10, 40) and [30, 60) that overlap
  // (recorded on two threads), a child [90, 120) that runs past the
  // parent's end, and a grandchild inside the first child.
  std::vector<Span> spans = {
      span(Span::kNoParent, 0, 100),  // 0
      span(0, 10, 40),                // 1
      span(0, 30, 60),                // 2
      span(0, 90, 120),               // 3
      span(1, 15, 25),                // 4
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  // Union of children within [0, 100): [10, 60) + [90, 100) = 60.
  expect(self[0] == 40, "parent self time subtracts the union of overlapping children");
  expect(self[1] == 20, "child self time subtracts its own child");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 10, "leaf self time is its duration");
  // Identical children count once.
  std::vector<Span> twins = {span(Span::kNoParent, 0, 10), span(0, 2, 6), span(0, 2, 6)};
  expect(perfbench::self_times(twins)[0] == 6, "identical children count once");
}

void test_tracer_nesting_and_allocs() {
  perfbench::Tracer tracer(true);
  const std::uint32_t outer = tracer.begin(perfbench::SpanKind::kPass);
  const std::uint32_t inner = tracer.begin(perfbench::SpanKind::kRender, 7);
  g_sink = new std::vector<int>(4);
  delete g_sink;
  tracer.end(inner);
  tracer.end(outer);
  const auto& spans = tracer.spans();
  expect(spans.size() == 2 && spans[1].parent == outer && spans[1].cell == 7,
         "a span begun inside another is its child");
  expect(spans[1].allocs == 2 && spans[0].allocs == 2,
         "allocations are counted per span, children included");
  perfbench::Tracer off(false);
  off.end(off.begin(perfbench::SpanKind::kPass));
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  test_tail_rule();
  test_self_time();
  test_tracer_nesting_and_allocs();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
