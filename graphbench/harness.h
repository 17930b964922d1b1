// Shared pieces of the graphguard benchmark harness: run bookkeeping,
// correctness gates, and outside-in timing helpers. Every layer is
// measured from here, around calls into the library's public API;
// nothing in src/ is instrumented for the benchmark.
#ifndef GRAPHBENCH_HARNESS_H_
#define GRAPHBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "attack/attacker.h"
#include "graph/graph.h"

namespace graphbench {

/// The pool size every workload runs with. Two workers leave room for
/// the serve IO/scheduler threads, the client threads and the OS on a
/// 4-vCPU host, and fix the one setting the hardware default would
/// otherwise vary between machines.
inline constexpr int kPoolThreads = 2;

/// Seed whose outputs are pinned (flip hashes, objectives, accuracy).
inline constexpr uint64_t kDefaultSeed = 1;

struct RunConfig {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 0.0;  // always given on the command line
  bool trace = false;
};

/// Outcome of one benchmark run. `metrics` holds only what the run
/// measured, by name; run.py attaches the units declared in
/// BENCHMARK.json and reports a declared metric the run did not set.
/// `failed` counts operations whose correctness gate did not hold;
/// `errors` says why, one line each.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> meta;
  std::vector<std::string> errors;

  /// Records one failed operation.
  void Fail(const std::string& why);
  /// Records a measured metric.
  void Set(const std::string& name, double value);
};

// ---- statistics -------------------------------------------------------

double Median(std::vector<double> values);
/// Linear-interpolation percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

// ---- measurement helpers ---------------------------------------------

/// Process peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Resets VmHWM to the current resident set (/proc/self/clear_refs),
/// so a probe's buffer does not count as the workload's peak. False
/// when the kernel refuses.
bool ResetPeakRss();

/// Wall time of a fixed integer ALU loop. No program change can move
/// it, so it tells a drifting host apart from a changed program.
double HostSpinSeconds();

/// Wall time of four streaming passes over a fixed 64 MiB buffer: the
/// same kind of probe for memory bandwidth, which the N x N scans and
/// caches of peega-topo depend on and the ALU loop does not see.
double HostMemorySeconds();

/// Reads obs counters as deltas: the value now minus the value when the
/// object was constructed.
class CounterDelta {
 public:
  explicit CounterDelta(const std::vector<std::string>& names);
  double Get(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> start_;
};

/// Per-step times of the set-up repeats of one run.
struct SetupTimes {
  std::vector<double> total;
  std::vector<double> generate;
  std::vector<double> save;
  std::vector<double> load;
};

/// The preparation a user pays before the first op: generate a graph,
/// SaveGraph it to `path` (as a new file) and LoadGraph it back, each
/// step timed into `times`. A load that does not reproduce the generated
/// graph is a failed op. Returns the loaded graph.
repro::graph::Graph GenerateSaveLoad(
    const std::function<repro::graph::Graph()>& generate,
    const std::string& path, SetupTimes* times, RunResult* result);

/// Runs `op` (which returns the seconds it measured) at least three
/// times and until `seconds` have passed; returns the samples.
std::vector<double> TimedOps(double seconds, const std::function<double()>& op);

/// Sets the graph layer's per-layer metrics: median generate, save and
/// load time over the set-up repeats.
void SetGraphLayerMetrics(const SetupTimes& setup, RunResult* result);

/// "0.1234,0.2345,..." for run metadata.
std::string JoinSeconds(const std::vector<double>& values);

/// Sets the end-to-end metrics of a compute workload: median set-up,
/// median op, ops per second at the median op time, peak RSS; and the
/// samples in the metadata. Ops run one at a time, so the rate is the
/// median op's inverse; the mean would let one slow spell of the host
/// move it.
void SetComputeMetrics(const SetupTimes& setup,
                       const std::vector<double>& samples, RunResult* result);

// ---- correctness gates ------------------------------------------------

/// FNV-1a over the flip sequence (kind, a, b per flip).
uint64_t FlipHash(const std::vector<repro::attack::Flip>& flips);

/// Empty when `actual` equals `expected` flip for flip; otherwise a
/// description of the first difference.
std::string CompareFlips(const std::vector<repro::attack::Flip>& expected,
                         const std::vector<repro::attack::Flip>& actual);

/// Empty when the two graphs have the same topology and features.
std::string CompareGraphs(const repro::graph::Graph& expected,
                          const repro::graph::Graph& actual);

/// Empty when `actual` equals the pinned value bit for bit.
std::string ComparePinned(const std::string& what, double pinned,
                          double actual);

/// FNV-1a over a file's bytes; 0 when it cannot be read.
uint64_t FileHash(const std::string& path);

// ---- workloads --------------------------------------------------------

void RunPeegaTopo(const RunConfig& config, RunResult* result);
void RunPeegaFeat(const RunConfig& config, RunResult* result);
void RunGnatDefend(const RunConfig& config, RunResult* result);
void RunServeJournal(const RunConfig& config, RunResult* result);

/// Self-test: each runs its workload's gate on a correct result, then
/// plants one fault (a wrong flip, a wrong accuracy, a non-OK serve
/// response) and returns how many of the two checks went wrong.
int SelfTestPeegaGate();
int SelfTestGnatGate();
int SelfTestServeGate();

}  // namespace graphbench

#endif  // GRAPHBENCH_HARNESS_H_
