// perfbench — the benchmark's own binary, run by perfbench/run.py:
//
//   perfbench info
//   perfbench rep    --workload W --seed N [--telemetry-dir D] [--spans F]
//   perfbench feed   --seed N
//   perfbench layers --workload W --seed N [--backlog Q] [--alpha A]
//                    [--frame-tuples F] [--spans F]
//
// Each mode prints one JSON line on stdout (rep for cluster_tcp prints a
// "READY <port> <port>" line first). Exit 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "bench.h"
#include "common/build_info.h"
#include "engine/simd_kernels.h"

namespace {

using perfbench::JsonObject;

int Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  return 2;
}

bool ParseFlags(int argc, char** argv,
                std::map<std::string, std::string>* out) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    (*out)[key.substr(2)] = argv[i + 1];
  }
  return true;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0') return false;
  *out = v;
  return true;
}

int Info() {
  const ctrlshed::BuildInfo& b = ctrlshed::GetBuildInfo();
  JsonObject j;
  j.Str("git_describe", b.git_describe)
      .Str("build_type", b.build_type)
      .Str("compiler", b.compiler)
      .Str("simd", ctrlshed::kernels::ActiveSimdModeName())
      .Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing mode (info|rep|feed|layers)");
  const std::string mode = argv[1];
  if (mode == "info") return Info();

  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage("flags are --key value");
  uint64_t seed = 0;
  if (!ParseU64(flags["seed"], &seed)) return Usage("--seed N is required");
  if (mode == "feed") return perfbench::RunFeed(seed);

  perfbench::Workload w;
  if (!perfbench::ParseWorkload(flags["workload"], &w)) {
    return Usage("--workload must be sim_paper, rt_inproc or cluster_tcp");
  }
  if (mode == "rep") {
    perfbench::RepOptions opt;
    opt.workload = w;
    opt.seed = seed;
    opt.telemetry_dir = flags["telemetry-dir"];
    opt.spans_path = flags["spans"];
    return perfbench::RunRep(opt);
  }
  if (mode == "layers") {
    perfbench::LayerOptions opt;
    opt.workload = w;
    opt.seed = seed;
    opt.spans_path = flags["spans"];
    for (const auto& [key, dst] :
         {std::pair<const char*, double*>{"backlog", &opt.backlog},
          {"alpha", &opt.alpha},
          {"frame-tuples", &opt.frame_tuples}}) {
      if (flags.count(key) != 0 && !ParseDouble(flags[key], dst)) {
        return Usage("numeric flag expected");
      }
    }
    return perfbench::RunLayers(opt);
  }
  return Usage("unknown mode");
}
