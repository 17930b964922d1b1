#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace graphbench {

void RunResult::Fail(const std::string& why) {
  ++failed;
  errors.push_back(why);
}

void RunResult::Set(const std::string& name, double value) {
  metrics[name] = value;
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double HostSpinSeconds() {
  // A data-dependent LCG chain: no vectorization, no memory traffic,
  // so its time tracks only the speed the host gives this vCPU.
  volatile uint64_t seed = 0x9e3779b97f4a7c15ull;
  uint64_t x = seed;
  const repro::obs::StopWatch watch;
  for (int i = 0; i < 40'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
  }
  const double seconds = watch.Seconds();
  seed = x;
  return seconds;
}

double HostMemorySeconds() {
  std::vector<uint64_t> buffer(8u << 20);
  for (size_t i = 0; i < buffer.size(); ++i) buffer[i] = i;
  volatile uint64_t sink = 0;
  const repro::obs::StopWatch watch;
  for (int pass = 0; pass < 4; ++pass) {
    uint64_t sum = 0;
    for (const uint64_t value : buffer) sum += value;
    sink = sink + sum;
  }
  return watch.Seconds();
}

CounterDelta::CounterDelta(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    start_[name] = repro::obs::GetCounter(name)->value();
  }
}

double CounterDelta::Get(const std::string& name) const {
  const auto it = start_.find(name);
  if (it == start_.end()) return 0.0;
  return static_cast<double>(repro::obs::GetCounter(name)->value() -
                             it->second);
}

repro::graph::Graph GenerateSaveLoad(
    const std::function<repro::graph::Graph()>& generate,
    const std::string& path, SetupTimes* times, RunResult* result) {
  // Each repeat saves to a new file. Truncating and rewriting the last
  // repeat's file makes ext4 flush it on close (auto_da_alloc), which
  // would time the disk rather than SaveGraph.
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  const repro::obs::StopWatch total;
  repro::obs::StopWatch step;
  const repro::graph::Graph generated = generate();
  times->generate.push_back(step.Seconds());
  step.Restart();
  const repro::status::Status saved = repro::graph::SaveGraph(generated, path);
  times->save.push_back(step.Seconds());
  step.Restart();
  repro::status::StatusOr<repro::graph::Graph> loaded =
      repro::graph::LoadGraph(path);
  times->load.push_back(step.Seconds());
  times->total.push_back(total.Seconds());
  ++result->attempted;
  if (!saved.ok() || !loaded.ok()) {
    result->Fail("setup: save/load of " + path + " failed");
    return generated;
  }
  const std::string diff = CompareGraphs(generated, *loaded);
  if (!diff.empty()) result->Fail("setup: reloaded graph: " + diff);
  return std::move(loaded).value();
}

std::vector<double> TimedOps(double seconds,
                             const std::function<double()>& op) {
  std::vector<double> samples;
  const repro::obs::StopWatch window;
  while (samples.size() < 3 || window.Seconds() < seconds) {
    samples.push_back(op());
  }
  return samples;
}

void SetComputeMetrics(const SetupTimes& setup,
                       const std::vector<double>& samples, RunResult* result) {
  const double op_s = Median(samples);
  result->Set("setup_s", Median(setup.total));
  result->Set("op_s", op_s);
  result->Set("ops_per_s", 1.0 / op_s);
  result->Set("peak_rss_mb", PeakRssMb());
  result->meta["op_samples"] = std::to_string(samples.size());
  result->meta["op_samples_s"] = JoinSeconds(samples);
  result->meta["setup_samples_s"] = JoinSeconds(setup.total);
}

void SetGraphLayerMetrics(const SetupTimes& setup, RunResult* result) {
  result->Set("graph.generate_s", Median(setup.generate));
  result->Set("graph.save_s", Median(setup.save));
  result->Set("graph.load_s", Median(setup.load));
}

std::string JoinSeconds(const std::vector<double>& values) {
  std::string listed;
  for (const double value : values) {
    char text[32];
    std::snprintf(text, sizeof(text), "%s%.4f", listed.empty() ? "" : ",",
                  value);
    listed += text;
  }
  return listed;
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

std::string FlipText(const repro::attack::Flip& flip) {
  std::ostringstream out;
  out << (flip.is_feature ? "feature(" : "edge(") << flip.a << "," << flip.b
      << ")";
  return out.str();
}

}  // namespace

uint64_t FlipHash(const std::vector<repro::attack::Flip>& flips) {
  uint64_t h = kFnvOffset;
  for (const repro::attack::Flip& flip : flips) {
    h = FnvMix(h, flip.is_feature ? 1u : 0u);
    h = FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(flip.a)));
    h = FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(flip.b)));
  }
  return h;
}

std::string CompareFlips(const std::vector<repro::attack::Flip>& expected,
                         const std::vector<repro::attack::Flip>& actual) {
  const size_t common = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < common; ++i) {
    if (expected[i] != actual[i]) {
      return "flip " + std::to_string(i) + ": expected " +
             FlipText(expected[i]) + ", got " + FlipText(actual[i]);
    }
  }
  if (expected.size() != actual.size()) {
    return "flip count: expected " + std::to_string(expected.size()) +
           ", got " + std::to_string(actual.size());
  }
  return "";
}

std::string CompareGraphs(const repro::graph::Graph& expected,
                          const repro::graph::Graph& actual) {
  if (expected.num_nodes != actual.num_nodes) return "node count differs";
  if (expected.adjacency.row_ptr() != actual.adjacency.row_ptr() ||
      expected.adjacency.col_idx() != actual.adjacency.col_idx() ||
      expected.adjacency.values() != actual.adjacency.values()) {
    return "adjacency differs";
  }
  const repro::linalg::Matrix& a = expected.features;
  const repro::linalg::Matrix& b = actual.features;
  if (a.rows() != b.rows() || a.cols() != b.cols() ||
      !std::equal(a.data(),
                  a.data() + static_cast<size_t>(a.rows()) * a.cols(),
                  b.data())) {
    return "features differ";
  }
  if (expected.labels != actual.labels) return "labels differ";
  return "";
}

std::string ComparePinned(const std::string& what, double pinned,
                          double actual) {
  if (actual == pinned) return "";
  char text[160];
  std::snprintf(text, sizeof(text), "%s: pinned %.17g, got %.17g",
                what.c_str(), pinned, actual);
  return text;
}

uint64_t FileHash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace graphbench
