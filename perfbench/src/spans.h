// The benchmark's own spans: one around each public call it makes into a
// layer, kept in memory and written once at the end as a Chrome trace
// plus a per-layer table of total time, self time and work counts.
#ifndef CTRLSHED_PERFBENCH_SPANS_H_
#define CTRLSHED_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// RAII span on the calling thread. Nested spans on one thread form a
/// parent/child tree; a span's self time excludes its children.
class Span {
 public:
  Span(const char* name, const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Units of work the span covered (tuples, calls, frames...).
  void SetCount(uint64_t n);

 private:
  int id_;
};

/// Writes `<path>` (Chrome trace JSON) and `<path>.layers.tsv` (one row
/// per layer/name: calls, count, total ms, self ms). Returns false when a
/// file cannot be written.
bool WriteSpans(const std::string& path);

}  // namespace perfbench

#endif  // CTRLSHED_PERFBENCH_SPANS_H_
