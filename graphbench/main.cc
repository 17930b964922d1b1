// graphbench: runs one benchmark workload against the graphguard
// library and prints one JSON object on stdout:
//   {"meta": {...}, "result": {"correct", "attempted", "failed", "metrics"}}
// where "metrics" maps each metric the run measured to its value. run.py
// builds this binary, runs it in a scratch directory (all files it
// writes are relative to the working directory), attaches the units
// BENCHMARK.json declares and checks the metric set against it.
//
//   graphbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   graphbench --self-test
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "harness.h"
#include "linalg/dispatch.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace graphbench {
namespace {

using repro::obs::Json;

using WorkloadFn = void (*)(const RunConfig&, RunResult*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const auto* const workloads = new std::map<std::string, WorkloadFn>{
      {"peega-topo", RunPeegaTopo},
      {"peega-feat", RunPeegaFeat},
      {"gnat-defend", RunGnatDefend},
      {"serve-journal", RunServeJournal},
  };
  return *workloads;
}

int Usage() {
  std::fprintf(stderr,
               "usage: graphbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       graphbench --self-test\n");
  return 2;
}

std::string Number(double value) {
  std::ostringstream out;
  Json::MakeNumber(value).Write(out);
  return out.str();
}

Json ToJson(const RunResult& result) {
  Json metrics = Json::MakeObject();
  for (const auto& [name, value] : result.metrics) {
    metrics.object[name] = Json::MakeNumber(value);
  }
  Json json = Json::MakeObject();
  json.object["correct"] = Json::MakeBool(result.failed == 0);
  json.object["attempted"] =
      Json::MakeNumber(static_cast<double>(result.attempted));
  json.object["failed"] = Json::MakeNumber(static_cast<double>(result.failed));
  json.object["metrics"] = std::move(metrics);
  return json;
}

int Run(const RunConfig& config) {
  const auto workload = Workloads().find(config.workload);
  if (workload == Workloads().end()) {
    std::fprintf(stderr, "graphbench: unknown workload \"%s\"\n",
                 config.workload.c_str());
    return 2;
  }
  repro::parallel::SetNumThreads(kPoolThreads);
  RunResult result;

  const double spin_before = HostSpinSeconds();
  const double memory_before = HostMemorySeconds();
  if (!ResetPeakRss()) {
    result.meta["peak_rss_includes_probe"] = "1";
  }
  workload->second(config, &result);
  const double spin_after = HostSpinSeconds();
  const double memory_after = HostMemorySeconds();
  if (result.attempted == 0) result.Fail("the workload ran no operation");
  if (config.trace) {
    result.Set("host.spin_s", (spin_before + spin_after) / 2);
    result.Set("host.mem_s", (memory_before + memory_after) / 2);
  }

  const double variant =
      repro::obs::GetGauge("linalg.simd.variant")->value();
  result.meta["workload"] = config.workload;
  result.meta["seed"] = std::to_string(config.seed);
  result.meta["trace"] = config.trace ? "1" : "0";
  result.meta["pool_threads"] =
      std::to_string(repro::parallel::NumThreads());
  result.meta["simd"] = repro::linalg::SimdVariantName(
      static_cast<repro::linalg::SimdVariant>(static_cast<int>(variant)));
  result.meta["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  result.meta["host_spin_before_s"] = Number(spin_before);
  result.meta["host_spin_after_s"] = Number(spin_after);
  result.meta["host_mem_before_s"] = Number(memory_before);
  result.meta["host_mem_after_s"] = Number(memory_after);

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "graphbench: FAILED %s\n", error.c_str());
  }
  Json meta = Json::MakeObject();
  for (const auto& [key, value] : result.meta) {
    meta.object[key] = Json::MakeString(value);
  }
  Json out = Json::MakeObject();
  out.object["meta"] = std::move(meta);
  out.object["result"] = ToJson(result);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace
}  // namespace graphbench

int main(int argc, char** argv) {
  using graphbench::RunConfig;
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    repro::parallel::SetNumThreads(graphbench::kPoolThreads);
    const int missed = graphbench::SelfTestPeegaGate() +
                       graphbench::SelfTestGnatGate() +
                       graphbench::SelfTestServeGate();
    std::fprintf(stderr, "self-test: %d plant(s) missed\n", missed);
    return missed == 0 ? 0 : 1;
  }
  RunConfig config;
  bool have_workload = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && graphbench::ParseUnsigned(value, &number)) {
      config.seed = number;
    } else if (flag == "--seconds" &&
               graphbench::ParseUnsigned(value, &number) && number > 0) {
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" &&
               graphbench::ParseUnsigned(value, &number) && number <= 1) {
      config.trace = number == 1;
    } else {
      return graphbench::Usage();
    }
  }
  if (!have_workload || !have_seconds || argc % 2 == 0) {
    return graphbench::Usage();
  }
  return graphbench::Run(config);
}
