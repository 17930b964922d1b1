#include "core/peega.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "attack/common.h"
#include "autograd/tape.h"
#include "core/peega_checkpoint.h"
#include "core/peega_engine.h"
#include "graph/graph.h"
#include "debug/check.h"
#include "debug/failpoints.h"
#include "linalg/ops.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace repro::core {

using attack::AccessControl;
using attack::AttackOptions;
using attack::AttackResult;
using attack::BestEdgeFlip;
using attack::BestFeatureFlip;
using attack::EdgeCandidate;
using attack::FeatureCandidate;
using autograd::Tape;
using autograd::Var;
using linalg::Matrix;
using linalg::SparseMatrix;

PeegaAttack::PeegaAttack() : options_(Options()) {}
PeegaAttack::PeegaAttack(const Options& options) : options_(options) {}

Matrix PeegaAttack::SurrogateRepresentation(const SparseMatrix& adjacency,
                                            const Matrix& x, int layers) {
  PEEGA_CHECK_GE(layers, 1);
  const SparseMatrix a_n = graph::GcnNormalize(adjacency);
  Matrix h = x;
  for (int l = 0; l < layers; ++l) h = linalg::SpMM(a_n, h);
  return h;
}

namespace {

// Rows of the self-view sum (Eq. 5): all nodes for untargeted attacks,
// only the victims for targeted attacks.
std::vector<std::pair<int, int>> SelfPairs(
    const graph::Graph& g, const std::vector<int>& targets) {
  std::vector<std::pair<int, int>> pairs;
  if (targets.empty()) {
    pairs.reserve(g.num_nodes);
    for (int v = 0; v < g.num_nodes; ++v) pairs.emplace_back(v, v);
  } else {
    for (int v : targets) pairs.emplace_back(v, v);
  }
  return pairs;
}

// Directed neighbor pairs (v, u) for every edge of the clean topology;
// these index the global-view sum of Eq. 6. Targeted attacks keep only
// pairs whose source is a victim.
std::vector<std::pair<int, int>> NeighborPairs(
    const graph::Graph& g, const std::vector<int>& targets) {
  std::vector<char> is_target(g.num_nodes, targets.empty() ? 1 : 0);
  for (int v : targets) is_target[v] = 1;
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(g.adjacency.nnz());
  const auto& row_ptr = g.adjacency.row_ptr();
  const auto& col_idx = g.adjacency.col_idx();
  for (int v = 0; v < g.num_nodes; ++v) {
    if (!is_target[v]) continue;
    for (int64_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
      pairs.emplace_back(v, col_idx[k]);
    }
  }
  return pairs;
}

// Forward pass of the PEEGA objective on a tape. `a` and `x` are the
// (dense) poisoned adjacency/features Vars; `reference` = A_n^l X of the
// clean graph.
Var ObjectiveOnTape(Tape* tape, Var a, Var x, const Matrix& reference,
                    const std::vector<std::pair<int, int>>& self_pairs,
                    const std::vector<std::pair<int, int>>& neighbor_pairs,
                    int layers, int norm_p, float lambda) {
  Var a_n = tape->GcnNormalizeDense(a);
  Var m_hat = x;
  for (int l = 0; l < layers; ++l) m_hat = tape->MatMul(a_n, m_hat);
  Var self_view = tape->SumEdgePNorm(m_hat, reference, self_pairs, norm_p);
  if (lambda == 0.0f) return self_view;
  Var global_view =
      tape->SumEdgePNorm(m_hat, reference, neighbor_pairs, norm_p);
  return tape->Add(self_view, tape->Scale(global_view, lambda));
}

std::string RngStateString(linalg::Rng* rng) {
  std::ostringstream out;
  out << rng->engine();
  return out.str();
}

// Campaign checkpointing shared by the engine and tape paths: resume
// validation/replay bookkeeping and the periodic save. The greedy loop
// is deterministic, so replaying the recorded flips onto the clean
// graph reconstructs the exact pre-interrupt state and the continuation
// is bitwise-identical to an uninterrupted run.
class CheckpointContext {
 public:
  CheckpointContext(const PeegaAttack::Options& options,
                    const graph::Graph& g,
                    const AttackOptions& attack_options)
      : path_(options.checkpoint_path),
        every_(options.checkpoint_every < 1 ? 1 : options.checkpoint_every) {
    header_.num_nodes = g.num_nodes;
    header_.feature_dim = g.features.cols();
    header_.layers = options.layers;
    header_.norm_p = options.norm_p;
    header_.lambda = options.lambda;
    header_.mode = static_cast<int>(options.mode);
    header_.engine = static_cast<int>(options.engine);
    header_.perturbation_rate = attack_options.perturbation_rate;
    header_.feature_cost = attack_options.feature_cost;
  }

  bool enabled() const { return !path_.empty(); }

  // Loads the on-disk checkpoint when one exists and fills `*replay`
  // with its flips (left empty for a fresh start). A checkpoint written
  // for a different graph/option set is rejected as stale.
  status::Status Resume(std::vector<attack::Flip>* replay,
                        linalg::Rng* rng) const {
    if (!enabled()) return status::Status::Ok();
    if (!std::ifstream(path_).good()) return status::Status::Ok();
    status::StatusOr<PeegaCheckpoint> loaded = LoadPeegaCheckpoint(path_);
    if (!loaded.ok()) return loaded.status().WithContext("PEEGA resume");
    const PeegaCheckpoint& ck = *loaded;
    const auto stale = [](const char* field) {
      return status::InvalidInput(
          std::string("stale checkpoint: ") + field +
          " differs from the current campaign");
    };
    if (ck.num_nodes != header_.num_nodes ||
        ck.feature_dim != header_.feature_dim) {
      return stale("graph dimensions");
    }
    if (ck.layers != header_.layers || ck.norm_p != header_.norm_p ||
        ck.lambda != header_.lambda) {
      return stale("objective options");
    }
    if (ck.mode != header_.mode || ck.engine != header_.engine) {
      return stale("attack mode/engine");
    }
    if (ck.perturbation_rate != header_.perturbation_rate ||
        ck.feature_cost != header_.feature_cost) {
      return stale("budget options");
    }
    *replay = ck.flips;
    if (!ck.rng_state.empty() && rng != nullptr) {
      std::istringstream in(ck.rng_state);
      in >> rng->engine();
      if (in.fail()) {
        return status::InvalidInput(
            "corrupt checkpoint: unparsable rng_state");
      }
    }
    return status::Status::Ok();
  }

  // Saves after every `checkpoint_every`-th committed flip.
  status::Status MaybeSave(const std::vector<attack::Flip>& flips,
                           double spent, linalg::Rng* rng) const {
    if (!enabled() || flips.size() % static_cast<size_t>(every_) != 0) {
      return status::Status::Ok();
    }
    PeegaCheckpoint ck = header_;
    ck.iteration = static_cast<int>(flips.size());
    ck.spent = spent;
    if (rng != nullptr) ck.rng_state = RngStateString(rng);
    ck.flips = flips;
    return SavePeegaCheckpoint(ck, path_).WithContext(
        "PEEGA checkpoint save");
  }

 private:
  std::string path_;
  int every_;
  PeegaCheckpoint header_;
};

// Deadline / cancellation / injected-interrupt poll shared by both
// greedy loops; returns the status that should stop the loop, OK to
// keep going.
status::Status CheckInterrupt(const status::Deadline& deadline,
                              size_t committed_flips) {
  status::Status status = deadline.Check(
      "PEEGA greedy iteration " + std::to_string(committed_flips));
  if (status.ok() && PEEGA_FAILPOINT("peega.interrupt")) {
    status = status::Cancelled("injected failpoint peega.interrupt");
  }
  return status;
}

// Alg. 1 on the incremental engine: same loop structure, budget
// accounting, freeze sets, and tie-breaks as the tape path below,
// but scores come from PeegaEngine's closed-form gradients and
// flips are committed as sparse delta updates. The two paths produce
// the same flip sequence (tests/engine_equiv_test.cc).
AttackResult AttackWithEngine(const PeegaAttack::Options& options,
                              const graph::Graph& g,
                              const AttackOptions& attack_options,
                              linalg::Rng* rng) {
  const obs::TraceSpan attack_span("peega.attack");
  const obs::StopWatch watch;
  const int budget = attack::ComputeBudget(g, attack_options.perturbation_rate);
  const AccessControl access(g.num_nodes, attack_options.attacker_nodes);
  const bool attack_topology = options.mode != PeegaAttack::Mode::kFeaturesOnly;
  const bool attack_features = options.mode != PeegaAttack::Mode::kTopologyOnly;
  const float beta = static_cast<float>(attack_options.feature_cost);

  PeegaEngine::Config config;
  config.layers = options.layers;
  config.norm_p = options.norm_p;
  config.lambda = options.lambda;
  config.attack_topology = attack_topology;
  config.attack_features = attack_features;
  config.target_nodes = options.target_nodes;
  PeegaEngine engine(g, config);

  attack::FlipSet edge_done(g.num_nodes);
  attack::FlipSet feature_done(g.features.cols());
  AttackResult result;
  double spent = 0.0;

  const CheckpointContext checkpoint(options, g, attack_options);
  std::vector<attack::Flip> replay;
  result.status = checkpoint.Resume(&replay, rng);
  if (!result.status.ok()) {
    // A rejected checkpoint must be loud, not silently restarted: the
    // caller decides whether to delete the stale file and rerun.
    result.poisoned = g;
    result.elapsed_seconds = watch.Seconds();
    return result;
  }
  for (const attack::Flip& flip : replay) {
    if (flip.is_feature) {
      engine.FlipFeature(flip.a, flip.b);
      feature_done.Insert(flip.a, flip.b);
      ++result.feature_modifications;
      spent += beta;
    } else {
      engine.FlipEdge(flip.a, flip.b);
      edge_done.InsertSymmetric(flip.a, flip.b);
      ++result.edge_modifications;
      spent += 1.0;
    }
    result.flips.push_back(flip);
  }

  static obs::Counter* const iterations = obs::GetCounter("peega.iterations");
  static obs::Counter* const edge_flips = obs::GetCounter("peega.edge_flips");
  static obs::Counter* const feature_flips =
      obs::GetCounter("peega.feature_flips");

  while (true) {
    const bool can_edge = attack_topology && spent + 1.0 <= budget + 1e-9;
    const bool can_feature =
        attack_features && beta > 0.0f && spent + beta <= budget + 1e-9;
    if (!can_edge && !can_feature) break;
    result.status = CheckInterrupt(attack_options.deadline,
                                   result.flips.size());
    if (!result.status.ok()) break;  // best-so-far: flips are a prefix

    const obs::TraceSpan iteration_span("peega.iteration");
    iterations->Add(1);
    {
      const obs::TraceSpan score_span("peega.score");
      result.status = engine.RefreshScores();
    }
    if (!result.status.ok()) {
      result.status = result.status.WithContext("PEEGA engine refresh");
      break;
    }

    EdgeCandidate edge;
    FeatureCandidate feature;
    {
      const obs::TraceSpan scan_span("peega.scan");
      if (can_edge) {
        edge = attack::BestEdgeFlipRows(
            g.num_nodes, access, &edge_done,
            [&](int u, int v0, int v1, float* out) {
              engine.EdgeScoreRow(u, v0, v1, out);
            });
      }
      if (can_feature) {
        feature = attack::BestFeatureFlipScored(
            g.num_nodes, g.features.cols(), access, &feature_done,
            [&](int v, int j) { return engine.FeatureScore(v, j); });
        // Normalized feature score S_f / beta (Sec. V-D1).
        feature.score /= beta;
      }
    }
    if (edge.u < 0 && feature.node < 0) break;

    const obs::TraceSpan flip_span("peega.flip");
    const bool pick_feature =
        feature.node >= 0 && (edge.u < 0 || edge.score < feature.score);
    if (pick_feature) {
      engine.FlipFeature(feature.node, feature.dim);
      feature_done.Insert(feature.node, feature.dim);
      ++result.feature_modifications;
      feature_flips->Add(1);
      result.flips.push_back({true, feature.node, feature.dim});
      spent += beta;
    } else {
      engine.FlipEdge(edge.u, edge.v);
      edge_done.InsertSymmetric(edge.u, edge.v);
      ++result.edge_modifications;
      edge_flips->Add(1);
      result.flips.push_back({false, edge.u, edge.v});
      spent += 1.0;
    }
    const status::Status saved =
        checkpoint.MaybeSave(result.flips, spent, rng);
    if (!saved.ok()) {
      result.status = saved;
      break;
    }
  }

  // Bring the cached objective terms up to date with the final flip and
  // emit the sparse poisoned adjacency straight from the engine's
  // neighbor lists — no dense O(N²) rescan. After a numeric fault the
  // refresh stays latched; the committed graph state is still valid but
  // the objective is not, so it is left at 0 for the degraded result.
  const status::Status final_refresh = engine.RefreshScores();
  if (final_refresh.ok()) {
    result.final_objective = engine.Objective();
  } else if (result.status.ok()) {
    result.status = final_refresh.WithContext("PEEGA final refresh");
  }
  result.poisoned =
      g.WithAdjacency(engine.PoisonedAdjacency()).WithFeatures(engine.features());
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace

double PeegaAttack::Objective(const graph::Graph& clean,
                              const Matrix& poisoned_dense_adjacency,
                              const Matrix& poisoned_features) const {
  const Matrix reference = SurrogateRepresentation(
      clean.adjacency, clean.features, options_.layers);
  const auto self_pairs = SelfPairs(clean, options_.target_nodes);
  const auto pairs = NeighborPairs(clean, options_.target_nodes);
  Tape tape;
  Var a = tape.Input(poisoned_dense_adjacency, false);
  Var x = tape.Input(poisoned_features, false);
  Var obj = ObjectiveOnTape(&tape, a, x, reference, self_pairs, pairs,
                            options_.layers, options_.norm_p,
                            options_.lambda);
  return obj.value()(0, 0);
}

AttackResult PeegaAttack::Attack(const graph::Graph& g,
                                 const AttackOptions& attack_options,
                                 linalg::Rng* rng) {
  // PEEGA is deterministic: greedy over exact gradient scores, and the
  // parallel scans below (BestEdgeFlip/BestFeatureFlip plus the tape's
  // row-parallel kernels) are bitwise-reproducible at any thread count.
  // `rng` is only read for checkpointing (its stream state rides along
  // so a resumed campaign continues the exact random sequence).
  if (options_.engine == Engine::kIncremental) {
    return AttackWithEngine(options_, g, attack_options, rng);
  }
  const obs::TraceSpan attack_span("peega.attack");
  const obs::StopWatch watch;
  const int budget = attack::ComputeBudget(g, attack_options.perturbation_rate);
  const AccessControl access(g.num_nodes, attack_options.attacker_nodes);

  // Black-box inputs only: adjacency and features. Labels are never read.
  const Matrix reference = SurrogateRepresentation(
      g.adjacency, g.features, options_.layers);
  const auto self_pairs = SelfPairs(g, options_.target_nodes);
  const auto neighbor_pairs = NeighborPairs(g, options_.target_nodes);

  const bool attack_topology = options_.mode != Mode::kFeaturesOnly;
  const bool attack_features = options_.mode != Mode::kTopologyOnly;
  const float beta = static_cast<float>(attack_options.feature_cost);

  Matrix dense = g.adjacency.ToDense();
  Matrix features = g.features;
  // Freeze once-flipped entries: without this the greedy loop oscillates
  // on one edge after the objective's local optimum is reached.
  attack::FlipSet edge_done(g.num_nodes);
  attack::FlipSet feature_done(g.features.cols());
  AttackResult result;
  double spent = 0.0;

  const CheckpointContext checkpoint(options_, g, attack_options);
  std::vector<attack::Flip> replay;
  result.status = checkpoint.Resume(&replay, rng);
  if (!result.status.ok()) {
    result.poisoned = g;
    result.elapsed_seconds = watch.Seconds();
    return result;
  }
  for (const attack::Flip& flip : replay) {
    if (flip.is_feature) {
      attack::FlipFeature(&features, flip.a, flip.b);
      feature_done.Insert(flip.a, flip.b);
      ++result.feature_modifications;
      spent += beta;
    } else {
      attack::FlipEdge(&dense, flip.a, flip.b);
      edge_done.InsertSymmetric(flip.a, flip.b);
      ++result.edge_modifications;
      spent += 1.0;
    }
    result.flips.push_back(flip);
  }

  // Alg. 1 phase instrumentation: score = objective forward+backward on
  // the tape, scan = greedy candidate search, flip = commit. These are
  // the rows of the paper's Tab. VII cost breakdown.
  static obs::Counter* const iterations = obs::GetCounter("peega.iterations");
  static obs::Counter* const edge_flips = obs::GetCounter("peega.edge_flips");
  static obs::Counter* const feature_flips =
      obs::GetCounter("peega.feature_flips");

  while (true) {
    const bool can_edge = attack_topology && spent + 1.0 <= budget + 1e-9;
    const bool can_feature =
        attack_features && beta > 0.0f && spent + beta <= budget + 1e-9;
    if (!can_edge && !can_feature) break;
    result.status = CheckInterrupt(attack_options.deadline,
                                   result.flips.size());
    if (!result.status.ok()) break;  // best-so-far: flips are a prefix

    const obs::TraceSpan iteration_span("peega.iteration");
    iterations->Add(1);
    Tape tape;
    Var a = tape.Input(dense, /*requires_grad=*/attack_topology);
    Var x = tape.Input(features, /*requires_grad=*/attack_features);
    {
      const obs::TraceSpan score_span("peega.score");
      Var obj =
          ObjectiveOnTape(&tape, a, x, reference, self_pairs, neighbor_pairs,
                          options_.layers, options_.norm_p, options_.lambda);
      tape.Backward(obj);
      // Mirror of the engine's latched-fault check: NaN gradients make
      // every scan comparison false and the loop would end silently OK.
      if (!std::isfinite(static_cast<double>(obj.value()(0, 0)))) {
        result.status = status::NumericFault(
            "non-finite PEEGA objective on the tape");
        break;
      }
    }

    EdgeCandidate edge;
    FeatureCandidate feature;
    {
      const obs::TraceSpan scan_span("peega.scan");
      if (can_edge) {
        edge = BestEdgeFlip(a.grad(), dense, access, &edge_done);
      }
      if (can_feature) {
        feature = BestFeatureFlip(x.grad(), features, access, &feature_done);
        // Normalized feature score S_f / beta (Sec. V-D1).
        feature.score /= beta;
      }
    }
    if (edge.u < 0 && feature.node < 0) break;

    // Alg. 1 lines 9-12: commit whichever candidate scores higher.
    const obs::TraceSpan flip_span("peega.flip");
    const bool pick_feature =
        feature.node >= 0 && (edge.u < 0 || edge.score < feature.score);
    if (pick_feature) {
      attack::FlipFeature(&features, feature.node, feature.dim);
      feature_done.Insert(feature.node, feature.dim);
      ++result.feature_modifications;
      feature_flips->Add(1);
      result.flips.push_back({true, feature.node, feature.dim});
      spent += beta;
    } else {
      attack::FlipEdge(&dense, edge.u, edge.v);
      edge_done.InsertSymmetric(edge.u, edge.v);
      ++result.edge_modifications;
      edge_flips->Add(1);
      result.flips.push_back({false, edge.u, edge.v});
      spent += 1.0;
    }
    const status::Status saved =
        checkpoint.MaybeSave(result.flips, spent, rng);
    if (!saved.ok()) {
      result.status = saved;
      break;
    }
  }

  result.final_objective = Objective(g, dense, features);
  // Commit sparsely: toggle the recorded edge flips on the clean CSR
  // rather than rescanning the N x N tape matrix. graph::WithFlips is
  // bitwise-identical to DenseToAdjacency(dense) here (tests/
  // scale_test.cc holds both paths to that equality).
  std::vector<std::pair<int, int>> edge_flip_pairs;
  edge_flip_pairs.reserve(result.flips.size());
  for (const attack::Flip& flip : result.flips) {
    if (!flip.is_feature) edge_flip_pairs.emplace_back(flip.a, flip.b);
  }
  result.poisoned =
      g.WithAdjacency(graph::WithFlips(g.adjacency, edge_flip_pairs))
          .WithFeatures(features);
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace repro::core
