// Shared pieces of the perfbench binary: the three workloads'
// configurations, process CPU/RSS probes, a tiny JSON writer, and the
// entry points of the rep, feeder and layer modes.
#ifndef CTRLSHED_PERFBENCH_BENCH_H_
#define CTRLSHED_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rt/rt_runtime.h"
#include "runner/experiment.h"

namespace perfbench {

enum class Workload { kSimPaper, kRtInproc, kClusterTcp };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// The paper's Section 5 plant, scaled: capacity and the Web trace's mean
// rate grow by the same factor, so the overload ratio (and with it the
// loss ratio) stays the paper's while the tuple count is large enough to
// time.
inline constexpr double kPaperCapacity = 190.0;
inline constexpr double kPaperWebMean = 200.0;
inline constexpr double kSimScale = 10.0;  // sim_paper: one plant, x10
inline constexpr double kRtScale = 10.0;   // rt/cluster: per worker, x10
inline constexpr int kRtWorkers = 2;
inline constexpr int kClusterNodes = 2;
inline constexpr size_t kClusterBatch = 64;
// Trace-seconds per wall-second for the real-time workloads: the 400 s
// trace replays in 10 wall seconds.
inline constexpr double kCompression = 40.0;

ctrlshed::ExperimentConfig SimPaperConfig(uint64_t seed);
ctrlshed::RtRunConfig RtInprocConfig(uint64_t seed);
/// Plant settings shared by the cluster controller and its nodes.
ctrlshed::ExperimentConfig ClusterPlant(uint64_t seed);
/// Workload of one cluster feeder (one per node).
ctrlshed::ExperimentConfig FeederWorkload(uint64_t seed, int node);

/// CPU seconds (user + system) this process has used so far.
double ProcessCpuSeconds();
/// Peak resident set of this process, MiB.
double PeakRssMb();
double NowSeconds();  // steady clock
double Median(std::vector<double> v);

/// Minimal JSON object writer: numbers keep every digit (%.17g).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, uint64_t v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Nums(const std::string& key, const std::vector<double>& v);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};
std::string JsonEscape(const std::string& s);

struct RepOptions {
  Workload workload = Workload::kSimPaper;
  uint64_t seed = 1;
  std::string telemetry_dir;  // non-empty: program telemetry on
  std::string spans_path;     // non-empty: write the benchmark's spans
};

/// One rep of a workload in this process; prints one JSON line.
int RunRep(const RepOptions& opt);
/// The cluster_tcp generator process: waits for "GO <port> <port>" on
/// stdin, feeds both nodes, prints one JSON line.
int RunFeed(uint64_t seed);

struct LayerOptions {
  Workload workload = Workload::kSimPaper;
  uint64_t seed = 1;
  double backlog = 0.0;      // tuples queued per engine, from a traced rep
  double alpha = 0.5;        // entry drop probability in force
  double frame_tuples = 0.0; // tuples per ingress frame (0: measure here)
  std::string spans_path;
};

/// Per-layer microbenchmarks driven through each layer's public
/// functions with the workload's inputs; prints one JSON line.
int RunLayers(const LayerOptions& opt);

}  // namespace perfbench

#endif  // CTRLSHED_PERFBENCH_BENCH_H_
