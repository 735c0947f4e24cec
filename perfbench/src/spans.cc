#include "spans.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

struct Record {
  const char* name;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
  uint32_t tid;
  uint64_t count;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One log for all threads; spans are few (one per public call), so a
// mutex costs nothing measurable.
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu
uint32_t g_next_tid = 1;        // guarded by g_mu

struct ThreadState {
  uint32_t tid = 0;
  std::vector<int> stack;
};
thread_local ThreadState t_state;

}  // namespace

Span::Span(const char* name, const char* layer) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(g_mu);
  if (t_state.tid == 0) t_state.tid = g_next_tid++;
  const int parent = t_state.stack.empty() ? -1 : t_state.stack.back();
  id_ = static_cast<int>(g_records.size());
  g_records.push_back({name, layer, now, now, parent, t_state.tid, 0});
  t_state.stack.push_back(id_);
}

Span::~Span() {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(g_mu);
  g_records[static_cast<size_t>(id_)].end_ns = now;
  t_state.stack.pop_back();
}

void Span::SetCount(uint64_t n) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_records[static_cast<size_t>(id_)].count = n;
}

bool WriteSpans(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_records.empty()) return true;
  const int64_t t0 = g_records.front().start_ns;

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"count\":%llu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", r.name, r.layer, r.tid,
                 static_cast<double>(r.start_ns - t0) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.count), r.parent);
  }
  std::fprintf(f, "]}\n");
  const bool trace_ok = std::fclose(f) == 0;

  // Self time: a span's duration minus the part its children cover.
  std::vector<int64_t> child_ns(g_records.size(), 0);
  for (const Record& r : g_records) {
    if (r.parent >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  struct Row {
    uint64_t calls = 0;
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::pair<std::string, std::string>, Row> rows;
  for (size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    Row& row = rows[{r.layer, r.name}];
    row.calls += 1;
    row.count += r.count;
    row.total_ns += r.end_ns - r.start_ns;
    row.self_ns += r.end_ns - r.start_ns - child_ns[i];
  }
  FILE* t = std::fopen((path + ".layers.tsv").c_str(), "w");
  if (t == nullptr) return false;
  std::fprintf(t, "layer\tspan\tcalls\tcount\ttotal_ms\tself_ms\n");
  for (const auto& [key, row] : rows) {
    std::fprintf(t, "%s\t%s\t%llu\t%llu\t%.3f\t%.3f\n", key.first.c_str(),
                 key.second.c_str(), static_cast<unsigned long long>(row.calls),
                 static_cast<unsigned long long>(row.count),
                 static_cast<double>(row.total_ns) / 1e6,
                 static_cast<double>(row.self_ns) / 1e6);
  }
  return std::fclose(t) == 0 && trace_ok;
}

}  // namespace perfbench
