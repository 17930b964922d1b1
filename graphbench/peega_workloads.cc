// peega-topo and peega-feat: PEEGA campaigns on StreamingSbm graphs.
//
// Each run first replays Alg. 1 through the public PeegaEngine and
// scored-scan API (the oracle, and the warm-up), then times
// PeegaAttack::Attack and requires every campaign to equal the replay
// flip for flip, objective for objective and graph for graph. The
// traced run reports the replay's per-call times as the per-layer
// metrics.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/common.h"
#include "core/peega.h"
#include "core/peega_engine.h"
#include "graph/streaming_sbm.h"
#include "harness.h"
#include "linalg/random.h"
#include "obs/stopwatch.h"

namespace graphbench {
namespace {

using repro::attack::AccessControl;
using repro::attack::AttackOptions;
using repro::attack::Flip;
using repro::core::PeegaAttack;
using repro::core::PeegaEngine;
using repro::graph::Graph;
using repro::obs::StopWatch;

struct PeegaWorkload {
  int num_nodes;
  /// Budget = floor(rate * edges); StreamingSbm emits exactly
  /// round(N * 10 / 2) edges, so both workloads get 20 flips.
  double rate;
  PeegaAttack::Mode mode;
  /// Set-up repeats per run; setup_s is their median. Sized so that a
  /// run spends about a second or more in set-up: a median of a few
  /// millisecond-scale samples follows the host's moment, not the
  /// program.
  int setup_repeats;
  /// Outputs pinned for kDefaultSeed.
  uint64_t pinned_hash;
  double pinned_objective;
};

// peega-topo: the paper's default mode; edge scan and dense engine
// caches dominate, the target of removing the N x N state.
const PeegaWorkload kTopo = {4000, 20.5 / 20000.0,
                             PeegaAttack::Mode::kTopologyAndFeatures, 30,
                             0xe8f4c30cb12b087bull, 252.6575927734375};
// peega-feat: features-only at scale; sparse row propagation and the
// feature scan, no edge scan, no dense N x N cache.
const PeegaWorkload kFeat = {100000, 20.5 / 500000.0,
                             PeegaAttack::Mode::kFeaturesOnly, 5,
                             0x42f7d61912cb3036ull, 5781.1435546875};

Graph GenerateSbm(int num_nodes, uint64_t seed) {
  repro::graph::StreamingSbmConfig config;
  config.num_nodes = num_nodes;
  config.feature_dim = 32;
  config.avg_degree = 10.0;
  config.seed = seed;
  return repro::graph::StreamingSbm(config).Materialize();
}

struct Campaign {
  std::vector<Flip> flips;
  double objective = 0.0;
  Graph poisoned;
  repro::status::Status status;
};

/// Seconds spent in each public call of the replay.
struct ReplayTimes {
  double build_s = 0.0;  // constructor + first RefreshScores
  double refresh_s = 0.0;
  double flip_s = 0.0;
  double edge_scan_s = 0.0;
  double feature_scan_s = 0.0;
  double emit_s = 0.0;  // PoisonedAdjacency + WithAdjacency/WithFeatures
};

/// Alg. 1 as PeegaAttack::Attack runs it on the incremental engine
/// (same budget accounting, freeze sets, normalisation and tie-break),
/// rebuilt from the public engine and scan API with a timer around
/// every call.
Campaign Replay(const Graph& g, const AttackOptions& options,
                PeegaAttack::Mode mode, ReplayTimes* times) {
  const int budget =
      repro::attack::ComputeBudget(g, options.perturbation_rate);
  const AccessControl access(g.num_nodes, options.attacker_nodes);
  const bool topology = mode != PeegaAttack::Mode::kFeaturesOnly;
  const bool features = mode != PeegaAttack::Mode::kTopologyOnly;
  const float beta = static_cast<float>(options.feature_cost);

  const PeegaAttack::Options defaults;
  PeegaEngine::Config config;
  config.layers = defaults.layers;
  config.norm_p = defaults.norm_p;
  config.lambda = defaults.lambda;
  config.attack_topology = topology;
  config.attack_features = features;

  StopWatch watch;
  PeegaEngine engine(g, config);
  times->build_s += watch.Seconds();
  bool first_refresh = true;

  repro::attack::FlipSet edge_done(g.num_nodes);
  repro::attack::FlipSet feature_done(g.features.cols());
  Campaign campaign;
  double spent = 0.0;
  while (true) {
    const bool can_edge = topology && spent + 1.0 <= budget + 1e-9;
    const bool can_feature =
        features && beta > 0.0f && spent + beta <= budget + 1e-9;
    if (!can_edge && !can_feature) break;

    watch.Restart();
    campaign.status = engine.RefreshScores();
    (first_refresh ? times->build_s : times->refresh_s) += watch.Seconds();
    first_refresh = false;
    if (!campaign.status.ok()) break;

    repro::attack::EdgeCandidate edge;
    repro::attack::FeatureCandidate feature;
    if (can_edge) {
      watch.Restart();
      edge = repro::attack::BestEdgeFlipScored(
          g.num_nodes, access, &edge_done,
          [&](int u, int v) { return engine.EdgeScore(u, v); });
      times->edge_scan_s += watch.Seconds();
    }
    if (can_feature) {
      watch.Restart();
      feature = repro::attack::BestFeatureFlipScored(
          g.num_nodes, g.features.cols(), access, &feature_done,
          [&](int v, int j) { return engine.FeatureScore(v, j); });
      times->feature_scan_s += watch.Seconds();
      feature.score /= beta;
    }
    if (edge.u < 0 && feature.node < 0) break;

    watch.Restart();
    const bool pick_feature =
        feature.node >= 0 && (edge.u < 0 || edge.score < feature.score);
    if (pick_feature) {
      engine.FlipFeature(feature.node, feature.dim);
      feature_done.Insert(feature.node, feature.dim);
      campaign.flips.push_back({true, feature.node, feature.dim});
      spent += beta;
    } else {
      engine.FlipEdge(edge.u, edge.v);
      edge_done.InsertSymmetric(edge.u, edge.v);
      campaign.flips.push_back({false, edge.u, edge.v});
      spent += 1.0;
    }
    times->flip_s += watch.Seconds();
  }

  watch.Restart();
  const repro::status::Status final_refresh = engine.RefreshScores();
  times->refresh_s += watch.Seconds();
  if (final_refresh.ok()) {
    campaign.objective = engine.Objective();
  } else if (campaign.status.ok()) {
    campaign.status = final_refresh;
  }
  watch.Restart();
  campaign.poisoned = g.WithAdjacency(engine.PoisonedAdjacency())
                          .WithFeatures(engine.features());
  times->emit_s += watch.Seconds();
  return campaign;
}

/// Empty when `attacked` reproduces the oracle campaign exactly.
std::string CheckCampaign(const Campaign& oracle,
                          const repro::attack::AttackResult& attacked) {
  if (!attacked.status.ok()) return "Attack: " + attacked.status.ToString();
  std::string diff = CompareFlips(oracle.flips, attacked.flips);
  if (diff.empty()) {
    diff = ComparePinned("final objective vs replay", oracle.objective,
                         attacked.final_objective);
  }
  if (diff.empty()) diff = CompareGraphs(oracle.poisoned, attacked.poisoned);
  return diff;
}

repro::attack::AttackResult TimedAttack(const Graph& g,
                                        const AttackOptions& options,
                                        PeegaAttack::Mode mode,
                                        double* seconds) {
  PeegaAttack::Options attack_options;
  attack_options.mode = mode;
  PeegaAttack attacker(attack_options);
  repro::linalg::Rng rng(1);
  const StopWatch watch;
  repro::attack::AttackResult attacked = attacker.Attack(g, options, &rng);
  *seconds = watch.Seconds();
  return attacked;
}

const std::vector<std::string> kCounters = {
    "peega_engine.rows_touched", "peega_engine.refreshes",
    "linalg.incremental.flops",  "attack.edges_scanned",
    "attack.features_scanned",   "parallel.regions",
    "parallel.chunks"};

void RunPeega(const PeegaWorkload& workload, const RunConfig& config,
              RunResult* result) {
  SetupTimes setup;
  Graph g;
  for (int i = 0; i < workload.setup_repeats; ++i) {
    g = GenerateSaveLoad(
        [&] { return GenerateSbm(workload.num_nodes, config.seed); },
        "graph.txt", &setup, result);
  }
  AttackOptions options;
  options.perturbation_rate = workload.rate;

  // The traced run warms up with one untraced campaign so that the
  // replay and the timed campaign after it both run warm; the untraced
  // run warms up with the replay itself.
  double warm_s = 0.0;
  const repro::attack::AttackResult warm_up =
      config.trace ? TimedAttack(g, options, workload.mode, &warm_s)
                   : repro::attack::AttackResult();

  ReplayTimes times;
  CounterDelta counters(kCounters);
  const StopWatch replay_watch;
  const Campaign oracle = Replay(g, options, workload.mode, &times);
  const double replay_s = replay_watch.Seconds();
  const double engine_rows = counters.Get("peega_engine.rows_touched");
  const double engine_refreshes = counters.Get("peega_engine.refreshes");
  const double incremental_flops = counters.Get("linalg.incremental.flops");
  const double edges_scanned = counters.Get("attack.edges_scanned");
  const double features_scanned = counters.Get("attack.features_scanned");
  const double regions = counters.Get("parallel.regions");
  const double chunks = counters.Get("parallel.chunks");

  ++result->attempted;
  const uint64_t hash = FlipHash(oracle.flips);
  char hash_text[32];
  std::snprintf(hash_text, sizeof(hash_text), "0x%016" PRIx64, hash);
  result->meta["flip_hash"] = hash_text;
  char objective_text[32];
  std::snprintf(objective_text, sizeof(objective_text), "%.17g",
                oracle.objective);
  result->meta["objective"] = objective_text;
  result->meta["flips"] = std::to_string(oracle.flips.size());
  if (!oracle.status.ok()) {
    result->Fail("replay: " + oracle.status.ToString());
  } else if (config.seed == kDefaultSeed &&
             (hash != workload.pinned_hash ||
              oracle.objective != workload.pinned_objective)) {
    result->Fail(std::string("replay differs from the pinned campaign: hash ") +
                 hash_text + ", " +
                 ComparePinned("objective", workload.pinned_objective,
                               oracle.objective));
  }

  if (!config.trace) {
    const std::vector<double> samples = TimedOps(config.seconds, [&] {
      double seconds = 0.0;
      const repro::attack::AttackResult attacked =
          TimedAttack(g, options, workload.mode, &seconds);
      ++result->attempted;
      const std::string diff = CheckCampaign(oracle, attacked);
      if (!diff.empty()) result->Fail("Attack vs replay: " + diff);
      return seconds;
    });
    SetComputeMetrics(setup, samples, result);
    return;
  }

  // Time one more untraced campaign for the tracing overhead; both
  // campaigns must equal the traced replay.
  double op_s = 0.0;
  const repro::attack::AttackResult attacked =
      TimedAttack(g, options, workload.mode, &op_s);
  for (const repro::attack::AttackResult* campaign : {&warm_up, &attacked}) {
    ++result->attempted;
    const std::string diff = CheckCampaign(oracle, *campaign);
    if (!diff.empty()) result->Fail("Attack vs traced replay: " + diff);
  }

  result->Set("engine.build_s", times.build_s);
  result->Set("engine.refresh_s", times.refresh_s);
  result->Set("engine.flip_s", times.flip_s);
  result->Set("engine.rows_touched", engine_rows);
  result->Set("engine.refreshes", engine_refreshes);
  result->Set("linalg.incremental_flops", incremental_flops);
  result->Set("attack.edge_scan_s", times.edge_scan_s);
  result->Set("attack.feature_scan_s", times.feature_scan_s);
  result->Set("attack.edges_scanned", edges_scanned);
  result->Set("attack.features_scanned", features_scanned);
  result->Set("attack.scan_share",
              (times.edge_scan_s + times.feature_scan_s) / op_s);
  SetGraphLayerMetrics(setup, result);
  result->Set("graph.emit_s", times.emit_s);
  result->Set("parallel.regions", regions);
  result->Set("parallel.chunks", chunks);
  result->Set("trace.op_s", op_s);
  result->Set("trace.replay_s", replay_s);
  result->Set("trace.overhead_s", replay_s - op_s);
}

}  // namespace

void RunPeegaTopo(const RunConfig& config, RunResult* result) {
  RunPeega(kTopo, config, result);
}

void RunPeegaFeat(const RunConfig& config, RunResult* result) {
  RunPeega(kFeat, config, result);
}

int SelfTestPeegaGate() {
  int missed = 0;
  const Graph g = GenerateSbm(300, 7);
  AttackOptions options;
  options.perturbation_rate = 6.5 / 1500.0;
  ReplayTimes times;
  const Campaign oracle =
      Replay(g, options, PeegaAttack::Mode::kTopologyAndFeatures, &times);
  double seconds = 0.0;
  repro::attack::AttackResult attacked = TimedAttack(
      g, options, PeegaAttack::Mode::kTopologyAndFeatures, &seconds);
  const std::string clean = CheckCampaign(oracle, attacked);
  if (!clean.empty() || attacked.flips.size() < 2) {
    std::fprintf(stderr,
                 "self-test: peega gate rejects a correct campaign: %s\n",
                 clean.c_str());
    return 1;
  }
  // Planted wrong flip: the second flip's endpoint moves by one.
  attacked.flips[1].b = (attacked.flips[1].b + 1) % g.num_nodes;
  const std::string planted = CheckCampaign(oracle, attacked);
  const bool hash_moved = FlipHash(attacked.flips) != FlipHash(oracle.flips);
  std::fprintf(stderr, "self-test: planted wrong flip %s (%s)\n",
               planted.empty() || !hash_moved ? "MISSED" : "caught",
               planted.c_str());
  if (planted.empty() || !hash_moved) ++missed;
  return missed;
}

}  // namespace graphbench
