// gnat-defend: the paper's defender, GNAT with all three views, on a
// cora-like graph poisoned by DICE during set-up. It never touches the
// attack layer or the PEEGA engine: GCN training on linalg MatMul/SpMM
// and the top-k cosine feature graph are the whole op.
#include <cstdio>
#include <string>
#include <vector>

#include "attack/dice.h"
#include "core/gnat.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "harness.h"
#include "linalg/ops.h"
#include "linalg/random.h"
#include "obs/stopwatch.h"

namespace graphbench {
namespace {

using repro::core::GnatDefender;
using repro::defense::DefenseReport;
using repro::graph::Graph;
using repro::obs::StopWatch;

/// One set-up costs about 10 ms; 80 of them make setup_s a median
/// over most of a second rather than over a few timer-scale samples.
constexpr int kSetupRepeats = 80;
/// Test accuracy of the kDefaultSeed run.
constexpr double kPinnedTestAccuracy = 0.96125000000000005;

Graph PoisonedCoraLike(uint64_t seed, SetupTimes* setup, RunResult* result) {
  const StopWatch watch;
  const Graph clean = GenerateSaveLoad(
      [&] {
        repro::linalg::Rng rng(seed);
        return repro::graph::MakeCoraLike(&rng, 2.0);
      },
      "graph.txt", setup, result);
  repro::attack::DiceAttack dice;
  repro::attack::AttackOptions options;
  options.perturbation_rate = 0.05;
  repro::linalg::Rng rng(seed + 1);
  repro::attack::AttackResult poisoned = dice.Attack(clean, options, &rng);
  ++result->attempted;
  if (!poisoned.status.ok() || poisoned.flips.empty()) {
    result->Fail("DICE: " + poisoned.status.ToString());
  }
  setup->total.back() = watch.Seconds();
  return std::move(poisoned.poisoned);
}

/// A fixed 50 epochs with no early stopping: with the tables' patience
/// the epoch count, and so the op's work, would change with the seed
/// (47 to 61 epochs over seeds 1-5), which is input variance, not
/// program variance.
repro::nn::TrainOptions BenchTraining() {
  repro::nn::TrainOptions train;
  train.max_epochs = 50;
  train.patience = 0;
  return train;
}

DefenseReport TimedRun(const Graph& g, uint64_t seed, double* seconds) {
  GnatDefender gnat;
  repro::linalg::Rng rng(seed + 2);
  const StopWatch watch;
  DefenseReport report = gnat.Run(g, BenchTraining(), &rng);
  *seconds = watch.Seconds();
  return report;
}

/// Empty when `report` reproduces the oracle run's accuracies exactly.
std::string CheckReport(const DefenseReport& oracle,
                        const DefenseReport& report) {
  if (!report.status.ok()) return "GNAT: " + report.status.ToString();
  std::string diff = ComparePinned("test accuracy vs first run",
                                   oracle.test_accuracy, report.test_accuracy);
  if (diff.empty()) {
    diff = ComparePinned("val accuracy vs first run", oracle.val_accuracy,
                         report.val_accuracy);
  }
  return diff;
}

/// Median seconds of `repeats` calls of `fn`.
template <typename Fn>
double MedianSeconds(int repeats, const Fn& fn) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const StopWatch watch;
    fn();
    samples.push_back(watch.Seconds());
  }
  return Median(samples);
}

}  // namespace

void RunGnatDefend(const RunConfig& config, RunResult* result) {
  SetupTimes setup;
  Graph g;
  for (int i = 0; i < kSetupRepeats; ++i) {
    g = PoisonedCoraLike(config.seed, &setup, result);
  }

  // The first run warms up and is the oracle for every later run.
  double warm_s = 0.0;
  const DefenseReport oracle = TimedRun(g, config.seed, &warm_s);
  ++result->attempted;
  char accuracy_text[32];
  std::snprintf(accuracy_text, sizeof(accuracy_text), "%.17g",
                oracle.test_accuracy);
  result->meta["test_accuracy"] = accuracy_text;
  if (!oracle.status.ok()) {
    result->Fail("GNAT: " + oracle.status.ToString());
  } else if (config.seed == kDefaultSeed) {
    const std::string diff = ComparePinned(
        "test accuracy", kPinnedTestAccuracy, oracle.test_accuracy);
    if (!diff.empty()) result->Fail(diff);
  }

  if (!config.trace) {
    const std::vector<double> samples = TimedOps(config.seconds, [&] {
      double seconds = 0.0;
      const DefenseReport report = TimedRun(g, config.seed, &seconds);
      ++result->attempted;
      const std::string diff = CheckReport(oracle, report);
      if (!diff.empty()) result->Fail(diff);
      return seconds;
    });
    SetComputeMetrics(setup, samples, result);
    return;
  }

  const GnatDefender::Options views;
  const double topology_s = MedianSeconds(3, [&] {
    GnatDefender::BuildTopologyGraph(g.adjacency, views.k_t);
  });
  const double feature_s = MedianSeconds(3, [&] {
    GnatDefender::BuildFeatureGraph(g.features, views.k_f);
  });

  CounterDelta counters({"gnat.epochs", "linalg.matmul.flops",
                         "linalg.spmm.flops", "parallel.regions",
                         "parallel.chunks"});
  double traced_s = 0.0;
  const DefenseReport traced = TimedRun(g, config.seed, &traced_s);
  const double epochs = counters.Get("gnat.epochs");
  const double matmul_flops = counters.Get("linalg.matmul.flops");
  const double spmm_flops = counters.Get("linalg.spmm.flops");
  const double regions = counters.Get("parallel.regions");
  const double chunks = counters.Get("parallel.chunks");
  ++result->attempted;
  std::string diff = CheckReport(oracle, traced);
  if (!diff.empty()) result->Fail("traced " + diff);

  double op_s = 0.0;
  const DefenseReport untraced = TimedRun(g, config.seed, &op_s);
  ++result->attempted;
  diff = CheckReport(oracle, untraced);
  if (!diff.empty()) result->Fail(diff);

  // Standalone kernels at GCN layer 1's shapes: X (n x F) times a
  // weight (F x hidden), and the densest view (k_t-hop) times the
  // hidden activations (n x hidden).
  const int hidden = views.gcn.hidden_dim;
  repro::linalg::Rng rng(config.seed);
  repro::linalg::Matrix weight(g.features.cols(), hidden);
  for (int r = 0; r < weight.rows(); ++r) {
    for (int c = 0; c < hidden; ++c) {
      weight(r, c) = static_cast<float>(rng.Uniform(-0.1, 0.1));
    }
  }
  const repro::linalg::Matrix activations =
      repro::linalg::MatMul(g.features, weight);
  const repro::linalg::SparseMatrix view = repro::graph::GcnNormalize(
      GnatDefender::BuildTopologyGraph(g.adjacency, views.k_t));
  CounterDelta kernel_flops({"linalg.matmul.flops", "linalg.spmm.flops"});
  const double matmul_s = MedianSeconds(
      20, [&] { repro::linalg::MatMul(g.features, weight); });
  const double spmm_s =
      MedianSeconds(20, [&] { repro::linalg::SpMM(view, activations); });
  const double matmul_call_flops = kernel_flops.Get("linalg.matmul.flops") / 20;
  const double spmm_call_flops = kernel_flops.Get("linalg.spmm.flops") / 20;

  result->Set("gnat.topology_graph_s", topology_s);
  result->Set("gnat.feature_graph_s", feature_s);
  result->Set("gnat.train_s", traced_s - topology_s - feature_s);
  result->Set("nn.epochs", epochs);
  result->Set("linalg.matmul_flops", matmul_flops);
  result->Set("linalg.spmm_flops", spmm_flops);
  result->Set("linalg.matmul_gflops", matmul_call_flops / matmul_s / 1e9);
  result->Set("linalg.spmm_gflops", spmm_call_flops / spmm_s / 1e9);
  result->Set("parallel.regions", regions);
  result->Set("parallel.chunks", chunks);
  SetGraphLayerMetrics(setup, result);
  result->Set("trace.op_s", op_s);
  result->Set("trace.replay_s", traced_s);
  result->Set("trace.overhead_s", traced_s - op_s);
}

int SelfTestGnatGate() {
  int missed = 0;
  repro::linalg::Rng rng(3);
  const Graph g = repro::graph::MakeCoraLike(&rng, 0.4);
  double seconds = 0.0;
  const DefenseReport oracle = TimedRun(g, 3, &seconds);
  DefenseReport report = TimedRun(g, 3, &seconds);
  const std::string clean = CheckReport(oracle, report);
  if (!clean.empty()) {
    std::fprintf(stderr, "self-test: gnat gate rejects a correct run: %s\n",
                 clean.c_str());
    ++missed;
  }
  // Planted wrong accuracy: one more test node counted correct.
  report.test_accuracy += 1.0 / static_cast<double>(g.test_nodes.size());
  const std::string planted = CheckReport(oracle, report);
  std::fprintf(stderr, "self-test: planted wrong accuracy %s (%s)\n",
               planted.empty() ? "MISSED" : "caught", planted.c_str());
  if (planted.empty()) ++missed;
  return missed;
}

}  // namespace graphbench
