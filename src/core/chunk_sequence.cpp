#include "dls/chunk_sequence.hpp"

namespace dls {

std::vector<ChunkRecord> chunk_sequence(Technique& technique, double task_time) {
  technique.reset();
  std::vector<ChunkRecord> out;
  const std::size_t p = technique.params().p;
  double now = 0.0;
  std::size_t pe = 0;
  std::size_t first = 0;
  for (;;) {
    const std::size_t size = technique.next_chunk(Request{pe, now});
    if (size == 0) break;
    const double exec = task_time * static_cast<double>(size);
    out.push_back({pe, first, size, now, exec});
    first += size;
    now += exec;
    technique.on_chunk_complete(ChunkFeedback{pe, size, exec, now});
    pe = (pe + 1) % p;
  }
  return out;
}

std::vector<std::size_t> chunk_sizes(Technique& technique, double task_time) {
  std::vector<std::size_t> out;
  for (const ChunkRecord& rec : chunk_sequence(technique, task_time)) out.push_back(rec.size);
  return out;
}

}  // namespace dls
