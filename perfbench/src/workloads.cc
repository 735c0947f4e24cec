// The three workloads, one rep each per process, and the cluster_tcp
// generator process. Every rep prints one JSON line with the raw counters
// run.py turns into metrics and correctness checks.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "bench_util.h"
#include "cluster/controller_runner.h"
#include "cluster/feeder.h"
#include "cluster/node_runner.h"
#include "engine/query_network.h"
#include "runner/networks.h"
#include "spans.h"
#include "workload/traces.h"

namespace perfbench {

using namespace ctrlshed;

namespace {

// Tuples still inside the plant when a run stops (queued in operators or
// ingress rings) are the only offered tuples neither shed nor departed.
// The controller holds delay near yd = 2 s, so the backlog at stop is a
// few seconds of capacity; more than this many seconds' worth means the
// counters no longer add up.
constexpr double kResidueSeconds = 10.0;

// Set-up samples per rep, reported as their median: sim set-up is a few
// builder calls (tens of microseconds) and timed this often; rt and
// cluster reps add this many runs stopped right at the replay window.
constexpr int kSimSetupRepeats = 25;
constexpr int kSetupSamples = 9;

// Departures between two CPU-clock stamps of a sim run: about 100 chunks
// of 4-8 ms of CPU per run.
constexpr uint64_t kChunkDepartures = 4096;

// FNV-1a over the exact bits of a run's QoS summary and recorder rows:
// two sim reps with the same seed must agree bit for bit.
class Digest {
 public:
  void Add(double v) { AddBytes(&v, sizeof(v)); }
  void Add(uint64_t v) { AddBytes(&v, sizeof(v)); }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void AddBytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  uint64_t h_ = 1469598103934665603ULL;
};

std::string RunDigest(const QosSummary& s, const Recorder& rec) {
  Digest d;
  d.Add(s.accumulated_violation);
  d.Add(s.delayed_tuples);
  d.Add(s.max_overshoot);
  d.Add(s.loss_ratio);
  d.Add(s.offered);
  d.Add(s.shed);
  d.Add(s.entry_shed);
  d.Add(s.ring_dropped);
  d.Add(s.queue_shed);
  d.Add(s.departures);
  d.Add(s.mean_delay);
  d.Add(s.p50_delay);
  d.Add(s.p95_delay);
  d.Add(s.p99_delay);
  for (const PeriodRecord& r : rec.rows()) {
    const PeriodMeasurement& m = r.m;
    d.Add(static_cast<uint64_t>(m.k));
    for (double x : {m.t, m.fin, m.fin_forecast, m.admitted, m.fout, m.queue,
                     m.cost, m.y_hat, m.y_measured, r.v, r.alpha,
                     r.queue_shed}) {
      d.Add(x);
    }
    d.Add(static_cast<uint64_t>(m.has_y_measured));
    d.Add(static_cast<uint64_t>(r.site));
  }
  return d.Hex();
}

// Per-period measured delays (periods with departures only), plus the
// medians of the actuation state the layer probes replay.
struct RecorderDigest {
  std::vector<double> y;
  double backlog = 0.0;  // median virtual queue per engine, tuples
  double alpha = 0.0;    // median entry drop probability
};

RecorderDigest DigestRecorder(const Recorder& rec, int engines) {
  RecorderDigest out;
  std::vector<double> q, a;
  for (const PeriodRecord& r : rec.rows()) {
    if (r.m.has_y_measured) out.y.push_back(r.m.y_measured);
    q.push_back(r.m.queue / engines);
    a.push_back(r.alpha);
  }
  out.backlog = Median(q);
  out.alpha = Median(a);
  return out;
}

void AddPlant(JsonObject* j, uint64_t offered, uint64_t entry_shed,
              uint64_t ring_dropped, uint64_t queue_shed, uint64_t departed,
              double capacity_total) {
  j->Int("offered", offered)
      .Int("entry_shed", entry_shed)
      .Int("ring_dropped", ring_dropped)
      .Int("queue_shed", queue_shed)
      .Int("departed", departed)
      .Num("residue_cap", capacity_total * kResidueSeconds);
}

void AddRecorder(JsonObject* j, const RecorderDigest& d) {
  j->Nums("y_measured", d.y)
      .Num("backlog", d.backlog)
      .Num("alpha", d.alpha);
}

int RepSim(const RepOptions& opt) {
  const ExperimentConfig cfg = SimPaperConfig(opt.seed);
  const double nominal_cost = cfg.headroom_true / cfg.capacity_rate;

  // Set-up: the public builders RunExperiment starts with, timed apart
  // from the run (the run does them again, inside its own CPU figure).
  std::vector<double> setup;
  for (int i = 0; i < kSimSetupRepeats; ++i) {
    Span span("sim.setup", "workload");
    const double t0 = NowSeconds();
    {
      Span s("BuildArrivalTrace", "workload");
      RateTrace trace = BuildArrivalTrace(cfg);
      s.SetCount(trace.values().size());
    }
    {
      Span s("MakeCostTrace", "workload");
      RateTrace cost = MakeCostTrace(cfg.duration, cfg.cost_params,
                                     cfg.seed + 1);
      s.SetCount(cost.values().size());
    }
    {
      Span s("BuildIdentificationNetwork", "runner");
      QueryNetwork net;
      BuildIdentificationNetwork(&net, nominal_cost);
    }
    setup.push_back(NowSeconds() - t0);
  }

  ExperimentConfig run_cfg = cfg;
  run_cfg.telemetry.dir = opt.telemetry_dir;
  // CPU-clock stamps at every kChunkDepartures-th departure: the run is
  // deterministic, so chunk i is the same work in every rep of this input.
  std::vector<double> stamps = {ProcessCpuSeconds()};
  stamps.reserve(1024);
  uint64_t departures = 0;
  run_cfg.departure_observer = [&stamps, &departures](const Departure&) {
    if (++departures % kChunkDepartures == 0) {
      stamps.push_back(ProcessCpuSeconds());
    }
  };
  const double t0 = NowSeconds();
  ExperimentResult r;
  {
    Span span("RunExperiment", "runner");
    r = RunExperiment(run_cfg);
    span.SetCount(r.summary.offered);
  }
  const double wall = NowSeconds() - t0;
  stamps.push_back(ProcessCpuSeconds());
  std::vector<double> chunks;
  for (size_t i = 1; i < stamps.size(); ++i) {
    chunks.push_back(stamps[i] - stamps[i - 1]);
  }

  const QosSummary& s = r.summary;
  JsonObject j;
  j.Str("workload", "sim_paper").Int("seed", opt.seed);
  j.Num("setup_s", Median(setup))
      .Num("cpu_s", stamps.back() - stamps.front())
      .Num("wall_s", wall)
      .Nums("chunk_cpu_s", chunks);
  AddPlant(&j, s.offered, s.entry_shed, s.ring_dropped, s.queue_shed,
           s.departures, cfg.capacity_rate);
  AddRecorder(&j, DigestRecorder(r.recorder, 1));
  j.Num("accumulated_violation", s.accumulated_violation)
      .Num("max_overshoot", s.max_overshoot)
      .Int("periods", r.recorder.rows().size())
      .Str("digest", RunDigest(s, r.recorder))
      .Num("peak_rss_mb", PeakRssMb());
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int RepRt(const RepOptions& opt) {
  RtRunConfig cfg = RtInprocConfig(opt.seed);
  const std::string err = RtConfigError(cfg);
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: rt config: %s\n", err.c_str());
    return 2;
  }
  // Set-up samples: the same run with its stop flag already raised, so it
  // tears down as soon as the replay window opens.
  std::vector<double> setup;
  {
    std::atomic<bool> stopped{true};
    RtRunConfig probe = cfg;
    probe.stop = &stopped;
    for (int i = 0; i < kSetupSamples; ++i) {
      Span span("RunRtExperiment (stopped at replay)", "rt");
      const double t0 = NowSeconds();
      const RtRunResult r = RunRtExperiment(probe);
      setup.push_back(NowSeconds() - t0 - r.wall_seconds);
    }
  }

  cfg.base.telemetry.dir = opt.telemetry_dir;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  RtRunResult r;
  {
    Span span("RunRtExperiment", "rt");
    r = RunRtExperiment(cfg);
    span.SetCount(r.summary.offered);
  }
  const double call = NowSeconds() - t0;
  const double cpu = ProcessCpuSeconds() - cpu0;
  setup.push_back(call - r.wall_seconds);

  const QosSummary& s = r.summary;
  JsonObject j;
  j.Str("workload", "rt_inproc").Int("seed", opt.seed);
  j.Num("setup_s", Median(setup)).Num("cpu_s", cpu)
      .Num("wall_s", r.wall_seconds);
  AddPlant(&j, s.offered, s.entry_shed, s.ring_dropped, s.queue_shed,
           s.departures, cfg.base.capacity_rate * cfg.workers);
  const RecorderDigest d = DigestRecorder(r.recorder, cfg.workers);
  AddRecorder(&j, d);
  j.Num("accumulated_violation", s.accumulated_violation)
      .Num("max_overshoot", s.max_overshoot)
      .Int("periods", r.recorder.rows().size())
      .Num("pump_interval_p99_ms", 1e3 * r.pump_intervals.Quantile(0.99))
      .Num("actuation_lateness_p99_ms",
           1e3 * r.actuation_lateness.Quantile(0.99))
      .Int("trace_events", r.trace_events)
      .Bool("interrupted", r.interrupted)
      .Num("peak_rss_mb", PeakRssMb());
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// One cluster bring-up in this process: the controller, then both nodes
// once the control port is bound. Start() returns the set-up time, when
// every node's ingress is ready; Join() waits for the run to end.
class Cluster {
 public:
  Cluster(const ExperimentConfig& plant, const std::string& telemetry_dir) {
    ctl_.base = plant;
    if (!telemetry_dir.empty()) {
      ctl_.base.telemetry.dir = telemetry_dir + "/controller";
    }
    ctl_.min_nodes = kClusterNodes;
    ctl_.time_compression = kCompression;
    ctl_.stop = &stop_;
    ctl_.on_ready = [this](int port) {
      std::lock_guard<std::mutex> lock(mu_);
      control_port_ = port;
      cv_.notify_all();
    };
    for (int i = 0; i < kClusterNodes; ++i) {
      ClusterNodeConfig& c = node_cfg_[static_cast<size_t>(i)];
      c.base = plant;
      if (!telemetry_dir.empty()) {
        c.base.telemetry.dir = telemetry_dir + "/node" + std::to_string(i);
      }
      c.node_id = static_cast<uint32_t>(i);
      c.workers = 1;
      c.batch = kClusterBatch;
      c.time_compression = kCompression;
      c.stop = &stop_;
      c.on_ready = [this, i](int port) {
        std::lock_guard<std::mutex> lock(mu_);
        ingress_[static_cast<size_t>(i)] = port;
        cv_.notify_all();
      };
    }
  }
  ~Cluster() { Join(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  double Start() {
    const double t0 = NowSeconds();
    controller_ = std::thread([this] {
      Span span("RunClusterController", "cluster");
      ctl_result_ = RunClusterController(ctl_);
    });
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return control_port_ >= 0; });
      for (ClusterNodeConfig& c : node_cfg_) c.controller_port = control_port_;
    }
    for (int i = 0; i < kClusterNodes; ++i) {
      nodes_[static_cast<size_t>(i)] = std::thread([this, i] {
        Span span("RunClusterNode", "cluster");
        ClusterNodeResult& r = node_results_[static_cast<size_t>(i)];
        r = RunClusterNode(node_cfg_[static_cast<size_t>(i)]);
        span.SetCount(r.offered);
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return std::all_of(ingress_.begin(), ingress_.end(),
                         [](int p) { return p >= 0; });
    });
    return NowSeconds() - t0;
  }

  /// Ends the run early (set-up samples stop right after Start).
  void Stop() { stop_.store(true, std::memory_order_relaxed); }

  void Join() {
    for (auto& t : nodes_) {
      if (t.joinable()) t.join();
    }
    if (controller_.joinable()) controller_.join();
  }

  const std::array<int, kClusterNodes>& ingress_ports() const {
    return ingress_;
  }
  const ClusterControllerResult& controller() const { return ctl_result_; }
  const std::array<ClusterNodeResult, kClusterNodes>& nodes() const {
    return node_results_;
  }

 private:
  std::atomic<bool> stop_{false};
  ClusterControllerConfig ctl_;
  std::array<ClusterNodeConfig, kClusterNodes> node_cfg_;
  std::mutex mu_;
  std::condition_variable cv_;
  int control_port_ = -1;                 // guarded by mu_
  std::array<int, kClusterNodes> ingress_{-1, -1};  // guarded by mu_
  ClusterControllerResult ctl_result_;    // written by controller_
  std::array<ClusterNodeResult, kClusterNodes> node_results_;  // by nodes_
  std::thread controller_;
  std::array<std::thread, kClusterNodes> nodes_;
};

int RepCluster(const RepOptions& opt) {
  const ExperimentConfig plant = ClusterPlant(opt.seed);

  std::vector<double> setup;
  for (int i = 0; i < kSetupSamples; ++i) {
    Cluster probe(plant, "");
    setup.push_back(probe.Start());
    probe.Stop();
  }

  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  Cluster cluster(plant, opt.telemetry_dir);
  setup.push_back(cluster.Start());
  // Releases the generator process (run.py relays the ports to it).
  std::printf("READY");
  for (int p : cluster.ingress_ports()) std::printf(" %d", p);
  std::printf("\n");
  std::fflush(stdout);
  cluster.Join();
  const double wall = NowSeconds() - t0 - setup.back();
  const double cpu = ProcessCpuSeconds() - cpu0;

  uint64_t offered = 0, entry = 0, ring = 0, qshed = 0, departed = 0;
  uint64_t frames = 0, rejected = 0, corrupt = 0, ctl_rejected = 0;
  uint64_t connected = 0;
  LatencyHistogram pumps{1e-6, 1e3, 1.08};
  std::vector<double> node_offered;
  for (const ClusterNodeResult& n : cluster.nodes()) {
    offered += n.offered;
    entry += n.entry_shed;
    ring += n.ring_dropped;
    qshed += n.queue_shed;
    departed += n.departed;
    frames += n.ingress_frames;
    rejected += n.ingress_rejected;
    corrupt += n.corrupt_streams;
    ctl_rejected += n.control_rejected;
    connected += n.controller_connected ? 1 : 0;
    pumps.Merge(n.pump_intervals);
    node_offered.push_back(static_cast<double>(n.offered));
  }
  const ClusterControllerResult& cres = cluster.controller();
  JsonObject j;
  j.Str("workload", "cluster_tcp").Int("seed", opt.seed);
  j.Num("setup_s", Median(setup)).Num("cpu_s", cpu).Num("wall_s", wall);
  AddPlant(&j, offered, entry, ring, qshed, departed,
           plant.capacity_rate * kClusterNodes);
  AddRecorder(&j, DigestRecorder(cres.recorder, kClusterNodes));
  j.Nums("node_offered", node_offered)
      .Int("ingress_frames", frames)
      .Int("ingress_rejected", rejected)
      .Int("corrupt_streams", corrupt + cres.corrupt_streams)
      .Int("control_rejected", ctl_rejected + cres.rejected)
      .Int("nodes_connected", connected)
      .Int("nodes_seen", static_cast<uint64_t>(cres.nodes_seen))
      .Int("periods", cres.recorder.rows().size())
      .Num("pump_interval_p99_ms", 1e3 * pumps.Quantile(0.99))
      .Num("peak_rss_mb", PeakRssMb());
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "sim_paper") {
    *out = Workload::kSimPaper;
  } else if (name == "rt_inproc") {
    *out = Workload::kRtInproc;
  } else if (name == "cluster_tcp") {
    *out = Workload::kClusterTcp;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kSimPaper:
      return "sim_paper";
    case Workload::kRtInproc:
      return "rt_inproc";
    case Workload::kClusterTcp:
      return "cluster_tcp";
  }
  return "?";
}

ExperimentConfig SimPaperConfig(uint64_t seed) {
  ExperimentConfig cfg =
      bench::PaperConfig(Method::kCtrl, WorkloadKind::kWeb, seed);
  cfg.capacity_rate = kPaperCapacity * kSimScale;
  cfg.web.mean_rate = kPaperWebMean * kSimScale;
  return cfg;
}

RtRunConfig RtInprocConfig(uint64_t seed) {
  RtRunConfig cfg;
  cfg.base = bench::PaperConfig(Method::kCtrl, WorkloadKind::kWeb, seed);
  cfg.base.estimation_noise = 0.0;  // sim-only; rt measures real noise
  cfg.base.capacity_rate = kPaperCapacity * kRtScale;  // per worker
  cfg.base.web.mean_rate = kRtWorkers * kPaperWebMean * kRtScale;
  cfg.base.use_queue_shedder = true;
  cfg.base.cost_aware_shedding = true;
  cfg.workers = kRtWorkers;
  cfg.batch = 1;
  cfg.time_compression = kCompression;
  return cfg;
}

ExperimentConfig ClusterPlant(uint64_t seed) {
  ExperimentConfig cfg =
      bench::PaperConfig(Method::kCtrl, WorkloadKind::kWeb, seed);
  cfg.estimation_noise = 0.0;
  cfg.capacity_rate = kPaperCapacity * kRtScale;  // per node
  return cfg;
}

ExperimentConfig FeederWorkload(uint64_t seed, int node) {
  ExperimentConfig cfg = ClusterPlant(seed + static_cast<uint64_t>(node));
  cfg.web.mean_rate = kPaperWebMean * kRtScale;
  return cfg;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // JSON has no NaN/inf; a non-finite figure is reported as null and
  // fails run.py's checks.
  body_ += std::strpbrk(buf, "ni") != nullptr ? "null" : buf;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += '"';
  body_ += JsonEscape(v);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Nums(const std::string& key,
                             const std::vector<double>& v) {
  Key(key);
  body_ += "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    if (i > 0) body_ += ",";
    body_ += std::strpbrk(buf, "ni") != nullptr ? "null" : buf;
  }
  body_ += "]";
  return *this;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

int RunRep(const RepOptions& opt) {
  int rc = 2;
  switch (opt.workload) {
    case Workload::kSimPaper:
      rc = RepSim(opt);
      break;
    case Workload::kRtInproc:
      rc = RepRt(opt);
      break;
    case Workload::kClusterTcp:
      rc = RepCluster(opt);
      break;
  }
  if (rc == 0 && !opt.spans_path.empty() && !WriteSpans(opt.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  return rc;
}

int RunFeed(uint64_t seed) {
  std::string line;
  if (!std::getline(std::cin, line) || line.rfind("GO ", 0) != 0) {
    std::fprintf(stderr, "perfbench feed: expected 'GO <port>...'\n");
    return 2;
  }
  std::vector<int> ports;
  {
    const char* p = line.c_str() + 3;
    char* end = nullptr;
    for (long v = std::strtol(p, &end, 10); end != p;
         v = std::strtol(p, &end, 10)) {
      ports.push_back(static_cast<int>(v));
      p = end;
    }
  }
  if (ports.size() != static_cast<size_t>(kClusterNodes)) {
    std::fprintf(stderr, "perfbench feed: need %d ports\n", kClusterNodes);
    return 2;
  }
  const double cpu0 = ProcessCpuSeconds();
  std::vector<ClusterFeedResult> res(ports.size());
  std::vector<std::thread> feeders;
  for (size_t i = 0; i < ports.size(); ++i) {
    feeders.emplace_back([&, i] {
      ClusterFeedConfig cfg;
      cfg.base = FeederWorkload(seed, static_cast<int>(i));
      cfg.port = ports[i];
      cfg.source_id = static_cast<uint32_t>(i);
      cfg.time_compression = kCompression;
      res[i] = RunClusterFeeder(cfg);
    });
  }
  for (auto& t : feeders) t.join();
  const double cpu = ProcessCpuSeconds() - cpu0;

  std::vector<double> sent, frames, overrun;
  uint64_t connected = 0;
  const double scheduled = ClusterPlant(seed).duration / kCompression;
  for (const ClusterFeedResult& r : res) {
    sent.push_back(static_cast<double>(r.tuples_sent));
    frames.push_back(static_cast<double>(r.frames_sent));
    overrun.push_back(r.wall_seconds - scheduled);
    connected += r.connected ? 1 : 0;
  }
  JsonObject j;
  j.Nums("sent", sent)
      .Nums("frames", frames)
      .Nums("overrun_s", overrun)
      .Int("connected", connected)
      .Num("cpu_s", cpu);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace perfbench
