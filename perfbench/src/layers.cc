// Per-layer probes: each times one public function of one src/ module on
// the workload's own inputs (its arrival stream, actuation state and
// backlog), with a benchmark span around every timed call batch.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "cluster/wire.h"
#include "common/rng.h"
#include "control/actuation_plan.h"
#include "control/ctrl_controller.h"
#include "control/period_math.h"
#include "engine/engine.h"
#include "engine/simd_kernels.h"
#include "metrics/qos_metrics.h"
#include "net/frame.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "rt/rt_clock.h"
#include "rt/rt_engine.h"
#include "rt/rt_source.h"
#include "rt/spsc_ring.h"
#include "runner/networks.h"
#include "shedding/entry_shedder.h"
#include "shedding/queue_shedder.h"
#include "sim/simulation.h"
#include "spans.h"
#include "workload/arrival_source.h"
#include "workload/traces.h"

// Counting allocator for net.decode_allocs_per_frame: every global
// operator new in this binary bumps one relaxed counter while armed.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

using namespace ctrlshed;

namespace {

constexpr double kHeadroom = 0.97;
// Arrivals the datapath probes replay, taken from the start of the
// workload's stream.
constexpr size_t kArrivals = 1 << 16;
constexpr int kRounds = 7;  // timed rounds per probe; the median is kept
// The replay-source probe plays the sim stream (kSimScale / kRtScale times
// as dense as one rt stream) at an rt stream's wall rate.
constexpr double kSimSourceCompression = kCompression * kRtScale / kSimScale;
constexpr double kSourceProbeSeconds = 2.0;

volatile uint64_t g_sink = 0;  // keeps probe results observable

/// Median over kRounds of the wall nanoseconds `round` takes per unit of
/// work, each round wrapped in a span named `name` on layer `layer`.
template <typename F>
double NsPer(const char* name, const char* layer, double work, F round) {
  round();  // warm caches, pools and lazy set-up
  std::vector<double> per;
  for (int r = 0; r < kRounds; ++r) {
    Span span(name, layer);
    span.SetCount(static_cast<uint64_t>(work));
    const double t0 = NowSeconds();
    round();
    per.push_back((NowSeconds() - t0) * 1e9 / work);
  }
  return Median(per);
}

/// Factor the paper's capacity and Web mean are scaled by, per engine.
double Scale(Workload w) {
  return w == Workload::kSimPaper ? kSimScale : kRtScale;
}

/// Mean tuples per trace second of one replay stream of `w`.
double StreamRate(Workload w) { return kPaperWebMean * Scale(w); }

/// The arrival trace one replay stream of `w` replays (sim: the whole one).
RateTrace StreamTrace(Workload w, uint64_t seed) {
  switch (w) {
    case Workload::kSimPaper:
      return BuildArrivalTrace(SimPaperConfig(seed));
    case Workload::kRtInproc:
      return BuildArrivalTrace(RtInprocConfig(seed).base)
          .Scaled(1.0 / kRtWorkers);
    case Workload::kClusterTcp:
      return BuildArrivalTrace(FeederWorkload(seed, 0));
  }
  return RateTrace();
}

size_t EngineBatch(Workload w) {
  return w == Workload::kClusterTcp ? kClusterBatch : 1;
}

bool CostAware(Workload w) { return w == Workload::kRtInproc; }

/// The first kArrivals tuples of the workload's stream, drawn by the same
/// ArrivalSource the sim uses.
std::vector<Tuple> Arrivals(Workload w, uint64_t seed) {
  Simulation sim;
  std::vector<Tuple> out;
  out.reserve(kArrivals);
  ArrivalSource src(0, StreamTrace(w, seed), ArrivalSource::Spacing::kPoisson,
                    seed + 3);
  src.Start(&sim, [&out](const Tuple& t) {
    if (out.size() < kArrivals) out.push_back(t);
  });
  // Enough trace time for kArrivals at the stream's mean rate, with margin.
  sim.Run(std::min(400.0, 2.0 * kArrivals / StreamRate(w)));
  return out;
}

double NominalCost(Workload w) {
  return kHeadroom / (kPaperCapacity * Scale(w));
}

/// Engine::InjectBatch + AdvanceTo over the arrivals' payloads at a given
/// quantum: the stream injected at once in quantum-sized runs, then
/// drained, so operator queues hold a backlog as under overload.
double EngineNsPerTuple(const std::vector<Tuple>& arrivals, double cost,
                        size_t quantum, const char* name) {
  QueryNetwork net;
  BuildIdentificationNetwork(&net, cost);
  Engine eng(&net, kHeadroom);
  eng.scheduler().set_quantum(quantum);
  std::vector<Tuple> stage(arrivals.size());
  return NsPer(name, "engine", static_cast<double>(arrivals.size()), [&] {
    const double base = eng.cpu_clock();
    for (size_t i = 0; i < arrivals.size(); ++i) {
      stage[i] = arrivals[i];
      stage[i].arrival_time = base;
    }
    for (size_t i = 0; i < stage.size(); i += quantum) {
      eng.InjectBatch(stage.data() + i, std::min(quantum, stage.size() - i));
    }
    eng.AdvanceTo(eng.cpu_clock() + 1e9);
  });
}

/// An engine holding `backlog` queued tuples spread along the chain.
struct BackloggedEngine {
  QueryNetwork net;
  std::unique_ptr<Engine> eng;

  BackloggedEngine(const std::vector<Tuple>& arrivals, double cost,
                   size_t backlog) {
    BuildIdentificationNetwork(&net, cost);
    eng = std::make_unique<Engine>(&net, kHeadroom);
    const size_t n = std::max<size_t>(1, backlog);
    for (size_t i = 0; i < n; ++i) {
      Tuple t = arrivals[(2 * i) % arrivals.size()];
      t.arrival_time = 0.0;
      eng->Inject(t, 0.0);
    }
    // Work off a third of it so the backlog spreads over the operators.
    eng->AdvanceTo(static_cast<double>(n) * cost / kHeadroom / 3.0);
  }
};

/// Median microseconds per call of `op(engine)` on a fresh backlogged
/// engine each call (the call consumes the backlog it is timed on).
template <typename F>
double UsPerBackloggedCall(const char* name, const char* layer,
                           const std::vector<Tuple>& arrivals, double cost,
                           size_t backlog, F op) {
  std::vector<double> per;
  for (int r = 0; r < 3 * kRounds; ++r) {
    BackloggedEngine b(arrivals, cost, backlog);
    Span span(name, layer);
    span.SetCount(b.eng->QueuedTuples());
    const double t0 = NowSeconds();
    op(*b.eng);
    per.push_back((NowSeconds() - t0) * 1e6);
  }
  return Median(per);
}

PeriodMeasurement TypicalMeasurement(Workload w, double alpha,
                                     double backlog, double cost) {
  PeriodMeasurement m;
  m.k = 10;
  m.t = 10.0;
  m.period = 1.0;
  m.target_delay = 2.0;
  m.fin = m.fin_forecast = StreamRate(w);
  m.admitted = (1.0 - alpha) * m.fin;
  m.fout = m.admitted;
  m.queue = backlog;
  m.cost = cost;
  m.y_hat = backlog * cost / kHeadroom;
  m.y_measured = m.y_hat;
  m.has_y_measured = true;
  return m;
}

struct SourceProbe {
  double cpu_ns_per_tuple = 0.0;
  double tuples_per_call = 0.0;
};

/// A lone RtArrivalSource replaying one workload stream into a counting
/// sink for kSourceProbeSeconds; this thread sleeps, so process CPU is
/// the replay thread's.
SourceProbe ProbeSource(Workload w, uint64_t seed) {
  RtClock clock(w == Workload::kSimPaper ? kSimSourceCompression
                                         : kCompression);
  RtArrivalSource src(0, StreamTrace(w, seed),
                      ArrivalSource::Spacing::kPoisson, seed + 3);
  uint64_t tuples = 0, calls = 0;  // written by the replay thread only
  Span span("RtArrivalSource", "rt");
  const double cpu0 = ProcessCpuSeconds();
  clock.Start();
  src.Start(&clock, [&](const Tuple*, size_t n) {
    tuples += n;
    calls += 1;
  });
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kSourceProbeSeconds));
  src.Stop();  // joins the replay thread
  const double cpu = ProcessCpuSeconds() - cpu0;
  span.SetCount(tuples);
  SourceProbe p;
  if (tuples > 0) {
    p.cpu_ns_per_tuple = cpu * 1e9 / static_cast<double>(tuples);
    p.tuples_per_call =
        static_cast<double>(tuples) / static_cast<double>(calls);
  }
  return p;
}

/// Wall nanoseconds per tuple moved through an SpscRing from a producer
/// thread pushing runs of `push` to a consumer popping runs of `pop`.
double SpscHopNs(const std::vector<Tuple>& arrivals, size_t push, size_t pop) {
  constexpr size_t kTuples = size_t{1} << 21;
  return NsPer("SpscRing", "rt", static_cast<double>(kTuples), [&] {
    SpscRing<Tuple> ring(4096);
    std::thread producer([&] {
      size_t sent = 0;
      while (sent < kTuples) {
        const size_t off = sent % (arrivals.size() - push);
        const size_t n = std::min(push, kTuples - sent);
        const size_t k = ring.TryPushBatch(arrivals.data() + off, n);
        if (k == 0) std::this_thread::yield();
        sent += k;
      }
    });
    std::vector<Tuple> out(pop);
    size_t got = 0;
    uint64_t sum = 0;
    while (got < kTuples) {
      const size_t k = ring.TryPopBatch(out.data(), pop);
      if (k == 0) {
        std::this_thread::yield();
        continue;
      }
      sum += static_cast<uint64_t>(out[0].value * 1e6);
      got += k;
    }
    producer.join();
    g_sink = g_sink + sum;
  });
}

/// RtEngine::OfferBatch + Pump on an un-started engine (the worker's
/// ring -> engine path, run synchronously on this thread).
double PumpNs(const std::vector<Tuple>& arrivals, double cost, size_t batch,
              size_t offer) {
  QueryNetwork net;
  BuildIdentificationNetwork(&net, cost);
  RtClock clock(1.0);
  clock.Start();
  RtEngineOptions opts;
  opts.headroom = kHeadroom;
  opts.batch = batch;
  RtEngine eng(&net, &clock, /*num_sources=*/1, opts);
  std::vector<Tuple> stage(arrivals);
  for (Tuple& t : stage) t.arrival_time = 0.0;
  SimTime now = 0.0;
  constexpr size_t kPumpEvery = 2048;  // tuples offered between pumps
  return NsPer("RtEngine.OfferBatch+Pump", "rt",
               static_cast<double>(stage.size()), [&] {
                 size_t since_pump = 0;
                 for (size_t i = 0; i < stage.size(); i += offer) {
                   const size_t n = std::min(offer, stage.size() - i);
                   eng.OfferBatch(stage.data() + i, n);
                   since_pump += n;
                   if (since_pump >= kPumpEvery) {
                     now += 1e6;
                     eng.Pump(now);
                     since_pump = 0;
                   }
                 }
                 now += 1e6;
                 eng.Pump(now);
               });
}

struct DecodeProbe {
  double ns_per_tuple = 0.0;
  double allocs_per_frame = 0.0;
};

/// DecodeTupleBatch on frames of `frame_tuples`, as the node ingress
/// decodes them (a fresh TupleBatch per frame).
DecodeProbe ProbeDecode(const std::vector<Tuple>& arrivals,
                        size_t frame_tuples) {
  constexpr size_t kFrames = 256;
  std::vector<std::string> payloads;
  for (size_t i = 0; i < kFrames; ++i) {
    const size_t off = (i * frame_tuples) % (arrivals.size() - frame_tuples);
    const std::string bytes =
        EncodeTupleBatchFrame(0, arrivals.data() + off, frame_tuples);
    FrameDecoder dec;
    dec.Feed(bytes.data(), bytes.size());
    Frame f;
    if (dec.Next(&f) != FrameDecoder::Status::kFrame) return {};
    payloads.push_back(f.payload);
  }
  constexpr int kPasses = 64;
  auto round = [&] {
    uint64_t n = 0;
    for (int p = 0; p < kPasses; ++p) {
      for (const std::string& payload : payloads) {
        TupleBatch batch;
        if (DecodeTupleBatch(payload, &batch)) n += batch.tuples.size();
      }
    }
    g_sink = g_sink + n;
  };
  DecodeProbe out;
  const double tuples =
      static_cast<double>(kFrames * kPasses * frame_tuples);
  out.ns_per_tuple = NsPer("DecodeTupleBatch", "net", tuples, round);
  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  round();
  g_count_allocs.store(false, std::memory_order_relaxed);
  out.allocs_per_frame = static_cast<double>(g_allocs.load()) /
                         static_cast<double>(kFrames * kPasses);
  return out;
}

/// Median microseconds for a stats-report-sized frame to go FrameClient ->
/// FrameServer -> echoed back over loopback.
double LoopbackRttUs() {
  FrameServerOptions sopts;
  FrameServer server(sopts);
  server.OnFrame([&server](uint64_t conn, const Frame& f) {
    std::string echo;
    AppendFrame(f.type, f.payload, &echo);
    server.Send(conn, std::move(echo));
  });
  server.Start();
  std::mutex mu;
  std::condition_variable cv;
  uint64_t echoes = 0;  // guarded by mu
  FrameClient client;
  client.OnFrame([&](const Frame&) {
    std::lock_guard<std::mutex> lock(mu);
    ++echoes;
    cv.notify_all();
  });
  std::vector<double> rtt;
  if (client.Connect("127.0.0.1", server.port(), 5.0)) {
    const std::string frame = EncodeStatsReportFrame(NodeStatsReport{});
    constexpr int kPings = 400;
    for (int i = 0; i < kPings; ++i) {
      Span span("FrameClient->FrameServer echo", "net");
      const double t0 = NowSeconds();
      if (!client.Send(frame)) break;
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, std::chrono::seconds(2),
                       [&] { return echoes > static_cast<uint64_t>(i); })) {
        break;
      }
      rtt.push_back((NowSeconds() - t0) * 1e6);
    }
  }
  client.Close();
  server.Stop();
  return rtt.empty() ? 0.0 : Median(rtt);
}

}  // namespace

int RunLayers(const LayerOptions& opt) {
  const Workload w = opt.workload;
  const uint64_t seed = opt.seed;
  const double cost = NominalCost(w);
  const size_t batch = EngineBatch(w);
  JsonObject j;

  // workload: the traces each run builds before its replay opens.
  {
    std::vector<ExperimentConfig> cfgs;
    switch (w) {
      case Workload::kSimPaper:
        cfgs = {SimPaperConfig(seed)};
        break;
      case Workload::kRtInproc:
        cfgs = {RtInprocConfig(seed).base};
        break;
      case Workload::kClusterTcp:
        cfgs = {FeederWorkload(seed, 0), FeederWorkload(seed, 1)};
        break;
    }
    std::vector<double> ms;
    for (int r = 0; r < 3 * kRounds; ++r) {
      Span span("BuildArrivalTrace+MakeCostTrace", "workload");
      const double t0 = NowSeconds();
      uint64_t slots = 0;
      for (const ExperimentConfig& cfg : cfgs) {
        slots += BuildArrivalTrace(cfg).values().size();
      }
      const ExperimentConfig& plant = cfgs.front();
      slots += MakeCostTrace(plant.duration, plant.cost_params, plant.seed + 1)
                   .values()
                   .size();
      span.SetCount(slots);
      ms.push_back((NowSeconds() - t0) * 1e3);
    }
    j.Num("workload.trace_build_ms", Median(ms));
  }

  const std::vector<Tuple> arrivals = Arrivals(w, seed);
  if (arrivals.size() < 1024) {
    std::fprintf(stderr, "perfbench layers: stream too short (%zu tuples)\n",
                 arrivals.size());
    return 1;
  }

  // engine: the row path, the columnar path, and its two kernels.
  j.Num("engine.row_ns_per_tuple",
        EngineNsPerTuple(arrivals, cost, 1, "Engine.InjectBatch+AdvanceTo q1"));
  j.Num("engine.columnar_ns_per_tuple",
        EngineNsPerTuple(arrivals, cost, kClusterBatch,
                         "Engine.InjectBatch+AdvanceTo q64"));
  {
    constexpr size_t kLane = 4096;
    constexpr int kCalls = 256;
    std::vector<double> values(kLane), u(kLane);
    Rng rng(seed);
    for (size_t i = 0; i < kLane; ++i) {
      values[i] = arrivals[i % arrivals.size()].value;
      u[i] = rng.Uniform();
    }
    std::vector<uint8_t> mask(kLane);
    const kernels::KernelTable& k = kernels::Kernels();
    const uint64_t salt = kernels::FilterSalt(2);
    const uint64_t bound = kernels::FilterPassBound(0.9);
    j.Num("engine.filter_kernel_ns_per_tuple",
          NsPer("Kernels.filter_mask", "engine",
                static_cast<double>(kLane * kCalls), [&] {
                  uint64_t n = 0;
                  for (int c = 0; c < kCalls; ++c) {
                    k.filter_mask(values.data(), kLane, salt, bound,
                                  mask.data());
                    n += mask[static_cast<size_t>(c)];
                  }
                  g_sink = g_sink + n;
                }));
    j.Num("engine.shed_kernel_ns_per_tuple",
          NsPer("Kernels.shed_mask", "engine",
                static_cast<double>(kLane * kCalls), [&] {
                  uint64_t n = 0;
                  for (int c = 0; c < kCalls; ++c) {
                    k.shed_mask(u.data(), kLane, opt.alpha, mask.data());
                    n += mask[static_cast<size_t>(c)];
                  }
                  g_sink = g_sink + n;
                }));
  }
  const size_t backlog = static_cast<size_t>(std::max(1.0, opt.backlog));
  const auto victims = CostAware(w) ? Engine::QueueVictimPolicy::kMostCostly
                                    : Engine::QueueVictimPolicy::kRandom;
  j.Num("engine.shed_from_queues_us",
        UsPerBackloggedCall("Engine.ShedFromQueues", "engine", arrivals, cost,
                            backlog, [&](Engine& e) {
                              Rng rng(seed);
                              e.ShedFromQueues(0.1 * e.OutstandingBaseLoad(),
                                               rng, victims);
                            }));

  // shedding: the per-tuple gate (node ingress), the batched gate (rt
  // OnArrivalBatch) and the in-network executor.
  const SourceProbe source = ProbeSource(w, seed);
  const size_t per_call = std::max<size_t>(
      1, static_cast<size_t>(std::lround(source.tuples_per_call)));
  const PeriodMeasurement m =
      TypicalMeasurement(w, opt.alpha, opt.backlog, cost);
  {
    EntryShedder sh(seed);
    sh.Configure((1.0 - opt.alpha) * m.fin_forecast, m);
    j.Num("shedding.admit_ns_per_tuple",
          NsPer("EntryShedder.Admit", "shedding",
                static_cast<double>(arrivals.size()), [&] {
                  uint64_t n = 0;
                  for (const Tuple& t : arrivals) n += sh.Admit(t) ? 1 : 0;
                  g_sink = g_sink + n;
                }));
    std::vector<uint8_t> admit(per_call);
    j.Num("shedding.admit_batch_ns_per_tuple",
          NsPer("EntryShedder.AdmitBatch", "shedding",
                static_cast<double>(arrivals.size() / per_call * per_call),
                [&] {
                  uint64_t n = 0;
                  for (size_t i = 0; i + per_call <= arrivals.size();
                       i += per_call) {
                    sh.AdmitBatch(arrivals.data() + i, per_call, admit.data());
                    n += admit[0];
                  }
                  g_sink = g_sink + n;
                }));
  }
  {
    // A plan whose shed exceeds the whole inflow, so the executor removes
    // a tenth of the backlog from the queues.
    PeriodMeasurement pm = m;
    const double v = -0.1 * opt.backlog / pm.period;
    j.Num("shedding.queue_apply_plan_us",
          UsPerBackloggedCall(
              "QueueShedder.ApplyPlan", "shedding", arrivals, cost, backlog,
              [&](Engine& e) {
                QueueShedder qs(&e, seed, CostAware(w));
                pm.queue = e.VirtualQueueLength();
                ActuationPlannerOptions po{cost, true, CostAware(w)};
                QueueFeedback fb;
                CollectQueueFeedback(e, &fb);
                const ActuationPlan plan =
                    ActuationPlanner(po).BuildPlan(v, pm, fb);
                qs.ApplyPlan(plan, pm);
              }));
  }

  // control: one period's arithmetic, per call.
  {
    constexpr int kCalls = 20000;
    PeriodMathOptions pmo;
    pmo.headroom = kHeadroom;
    PeriodMath math(cost, pmo);
    PeriodDeltas d;
    d.offered = static_cast<uint64_t>(m.fin);
    d.admitted = static_cast<uint64_t>(m.admitted);
    d.drained_base_load = m.admitted * cost;
    d.busy_seconds = kHeadroom;
    d.queue = opt.backlog;
    d.delay_sum = m.y_hat * m.admitted;
    d.delay_count = static_cast<uint64_t>(m.admitted);
    double acc = 0.0;
    j.Num("control.sample_ns",
          NsPer("PeriodMath.SampleDeltas", "control", kCalls, [&] {
            for (int i = 0; i < kCalls; ++i) {
              d.now += 1.0;
              acc += math.SampleDeltas(d, 2.0, 1.0).y_hat;
            }
          }));
    CtrlOptions co;
    co.headroom = kHeadroom;
    CtrlController ctrl(co);
    j.Num("control.ctrl_rate_ns",
          NsPer("CtrlController.DesiredRate", "control", kCalls, [&] {
            for (int i = 0; i < kCalls; ++i) acc += ctrl.DesiredRate(m);
          }));
    BackloggedEngine b(arrivals, cost, backlog);
    QueueFeedback fb;
    CollectQueueFeedback(*b.eng, &fb);
    const ActuationPlanner planner(
        ActuationPlannerOptions{cost, w == Workload::kRtInproc, CostAware(w)});
    const double v = (1.0 - opt.alpha) * m.fin_forecast;
    j.Num("control.plan_ns",
          NsPer("ActuationPlanner.BuildPlan", "control", kCalls, [&] {
            for (int i = 0; i < kCalls; ++i) {
              acc += planner.BuildPlan(v, m, fb).entry_alpha;
            }
          }));
    g_sink = g_sink + static_cast<uint64_t>(std::fabs(acc)) % 7;
  }

  // rt: the replay source, the SPSC hop and the worker pump.
  j.Num("rt.source_cpu_ns_per_tuple", source.cpu_ns_per_tuple);
  j.Num("rt.source_tuples_per_call", source.tuples_per_call);
  j.Num("rt.spsc_hop_ns_per_tuple", SpscHopNs(arrivals, per_call, batch));
  j.Num("rt.pump_ns_per_tuple", PumpNs(arrivals, cost, batch, per_call));

  // net: frame decode at the workload's frame size, and a loopback echo.
  const size_t frame_tuples = std::max<size_t>(
      1, static_cast<size_t>(std::lround(
             opt.frame_tuples > 0.0 ? opt.frame_tuples
                                    : source.tuples_per_call)));
  const DecodeProbe decode = ProbeDecode(arrivals, frame_tuples);
  j.Num("net.decode_ns_per_tuple", decode.ns_per_tuple);
  j.Num("net.decode_allocs_per_frame", decode.allocs_per_frame);
  j.Num("net.loopback_rtt_us", LoopbackRttUs());

  // cluster: the control-plane codecs, encode + decode per message.
  {
    constexpr int kCalls = 20000;
    NodeStatsReport report;
    report.deltas.offered = static_cast<uint64_t>(m.fin);
    report.deltas.queue = opt.backlog;
    report.alpha = opt.alpha;
    j.Num("cluster.report_codec_ns",
          NsPer("StatsReport encode+decode", "cluster", kCalls, [&] {
            uint64_t ok = 0;
            for (int i = 0; i < kCalls; ++i) {
              report.seq = static_cast<uint32_t>(i);
              const std::string f = EncodeStatsReportFrame(report);
              NodeStatsReport back;
              ok += DecodeStatsReport(f.substr(kFrameHeaderBytes), &back);
            }
            g_sink = g_sink + ok;
          }));
    ClusterActuation act;
    act.v = (1.0 - opt.alpha) * m.fin;
    act.target_delay = 2.0;
    j.Num("cluster.actuation_codec_ns",
          NsPer("Actuation encode+decode", "cluster", kCalls, [&] {
            uint64_t ok = 0;
            for (int i = 0; i < kCalls; ++i) {
              act.seq = static_cast<uint32_t>(i);
              const std::string f = EncodeActuationFrame(act);
              ClusterActuation back;
              ok += DecodeActuation(f.substr(kFrameHeaderBytes), &back);
            }
            g_sink = g_sink + ok;
          }));
  }

  // metrics: the per-departure QoS bookkeeping.
  {
    QosAccumulator qos(2.0);
    std::vector<Departure> deps(arrivals.size());
    for (size_t i = 0; i < deps.size(); ++i) {
      deps[i].arrival_time = arrivals[i].arrival_time;
      // Delays spread around yd, as under control.
      deps[i].depart_time = arrivals[i].arrival_time + 4.0 * arrivals[i].value;
    }
    j.Num("metrics.departure_record_ns",
          NsPer("QosAccumulator.OnDeparture", "metrics",
                static_cast<double>(deps.size()), [&] {
                  for (const Departure& d : deps) qos.OnDeparture(d);
                }));
    g_sink = g_sink + qos.departures();
  }

  std::printf("%s\n", j.str().c_str());
  if (!opt.spans_path.empty() && !WriteSpans(opt.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
