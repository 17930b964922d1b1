#include "core/peega_batch.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "attack/common.h"
#include "autograd/tape.h"
#include "core/peega_engine.h"
#include "linalg/ops.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace repro::core {

using attack::AccessControl;
using attack::AttackOptions;
using attack::AttackResult;
using autograd::Tape;
using autograd::Var;
using linalg::Matrix;

PeegaBatchAttack::PeegaBatchAttack() : options_(Options()) {}
PeegaBatchAttack::PeegaBatchAttack(const Options& options)
    : options_(options) {}

namespace {

struct Candidate {
  float score;
  bool is_feature;
  int a;  // node u / node
  int b;  // node v / feature dim
};

// Rows per chunk of the parallel candidate scans. Per-chunk results are
// concatenated in ascending chunk order, so the candidate list — and
// therefore the RanksBefore ranking over it and the committed batch —
// is identical to the serial scan at any thread count.
constexpr int64_t kScanRowGrain = 32;

float GumbelNoise(float scale, linalg::Rng* rng) {
  if (scale <= 0.0f) return 0.0f;
  const double u = std::max(1e-12, rng->Uniform(0.0, 1.0));
  return static_cast<float>(-scale * std::log(-std::log(u)));
}

// Strict total order for ranking candidates: score descending, ties
// broken edge-before-feature then lowest (a, b). std::partial_sort is
// unstable, so without an explicit tie rule the committed batch could
// depend on the partition of the scan; a total order makes the sharded
// per-chunk top-k below exact and keeps the engine and tape paths
// committing identical batches at any thread count.
bool RanksBefore(const Candidate& lhs, const Candidate& rhs) {
  if (lhs.score != rhs.score) return lhs.score > rhs.score;
  if (lhs.is_feature != rhs.is_feature) return !lhs.is_feature;
  if (lhs.a != rhs.a) return lhs.a < rhs.a;
  return lhs.b < rhs.b;
}

// Shrinks `out` to its best `keep` candidates under RanksBefore.
void PruneToTop(std::vector<Candidate>* out, int keep) {
  if (static_cast<int>(out->size()) <= keep) return;
  std::partial_sort(out->begin(), out->begin() + keep, out->end(),
                    RanksBefore);
  out->resize(static_cast<size_t>(keep));
}

// Sharded candidate scan shared by the engine and tape batch paths,
// with edge scores from a row scorer `edge_row(u, v0, v1, out)` (see
// attack::VisitOpenPairs): row-chunked with static kScanRowGrain
// chunks, per-chunk buffers concatenated in ascending chunk order
// (= the serial scan order). When
// `keep` > 0 each shard prunes to its best `keep` candidates under
// RanksBefore after every scanned row, so scan memory is
// O(keep + num_cols) per shard instead of the full O(N²) candidate
// list — and because RanksBefore is a strict total order, the global
// top-`keep` of the merged prunings equals the top-`keep` of the full
// list exactly. `keep` <= 0 collects everything: Gumbel runs draw one
// noise value per candidate in list order, so every candidate must
// survive to the draw for seeded reproducibility.
template <typename EdgeRowFn, typename FeatureScoreFn>
std::vector<Candidate> CollectCandidates(
    int num_nodes, int num_features, const AccessControl& access,
    const attack::FlipSet& edge_done, const attack::FlipSet& feature_done,
    bool attack_topology, bool attack_features, float beta, int keep,
    const EdgeRowFn& edge_row, const FeatureScoreFn& feature_score) {
  std::vector<Candidate> candidates;
  if (attack_topology) {
    const int64_t chunks = parallel::NumChunks(num_nodes, kScanRowGrain);
    std::vector<std::vector<Candidate>> per_chunk(
        static_cast<size_t>(chunks));
    parallel::ParallelForChunked(
        0, num_nodes, kScanRowGrain,
        [&](int64_t u0, int64_t u1, int64_t chunk) {
          auto& out = per_chunk[static_cast<size_t>(chunk)];
          std::vector<float> scores(static_cast<size_t>(num_nodes));
          for (int u = static_cast<int>(u0); u < static_cast<int>(u1); ++u) {
            attack::VisitOpenPairs(
                access, &edge_done, u, u + 1, num_nodes, edge_row,
                scores.data(), [&](int v, float s) {
                  out.push_back({s, false, u, v});
                });
            if (keep > 0) PruneToTop(&out, keep);
          }
        });
    for (const auto& chunk : per_chunk) {
      candidates.insert(candidates.end(), chunk.begin(), chunk.end());
    }
  }
  if (attack_features && beta > 0.0f) {
    const int64_t chunks = parallel::NumChunks(num_nodes, kScanRowGrain);
    std::vector<std::vector<Candidate>> per_chunk(
        static_cast<size_t>(chunks));
    parallel::ParallelForChunked(
        0, num_nodes, kScanRowGrain,
        [&](int64_t v0, int64_t v1, int64_t chunk) {
          auto& out = per_chunk[static_cast<size_t>(chunk)];
          for (int v = static_cast<int>(v0); v < static_cast<int>(v1); ++v) {
            if (!access.FeatureAllowed(v)) continue;
            for (int j = 0; j < num_features; ++j) {
              if (feature_done.Contains(v, j)) continue;
              out.push_back({feature_score(v, j), true, v, j});
            }
            if (keep > 0) PruneToTop(&out, keep);
          }
        });
    for (const auto& chunk : per_chunk) {
      candidates.insert(candidates.end(), chunk.begin(), chunk.end());
    }
  }
  return candidates;
}

// The batched loop on the incremental engine: identical candidate
// collection order, Gumbel draw order, ranking, and commit rules as the
// tape path below, with scores from cached closed-form gradients. The
// batch objective always sums over ALL nodes (SumRowPNorm), so the
// engine runs untargeted regardless of peega.target_nodes — exactly
// like the tape path, which never reads it either.
AttackResult BatchWithEngine(const PeegaBatchAttack::Options& options,
                             const graph::Graph& g,
                             const AttackOptions& attack_options,
                             linalg::Rng* rng) {
  const obs::TraceSpan attack_span("peega_batch.attack");
  const obs::StopWatch watch;
  const int budget =
      attack::ComputeBudget(g, attack_options.perturbation_rate);
  const AccessControl access(g.num_nodes, attack_options.attacker_nodes);
  const auto& peega = options.peega;
  const bool attack_topology =
      peega.mode != PeegaAttack::Mode::kFeaturesOnly;
  const bool attack_features =
      peega.mode != PeegaAttack::Mode::kTopologyOnly;
  const float beta = static_cast<float>(attack_options.feature_cost);
  const int num_features = g.features.cols();

  PeegaEngine::Config config;
  config.layers = peega.layers;
  config.norm_p = peega.norm_p;
  config.lambda = peega.lambda;
  config.attack_topology = attack_topology;
  config.attack_features = attack_features;
  PeegaEngine engine(g, config);

  attack::FlipSet edge_done(g.num_nodes);
  attack::FlipSet feature_done(num_features);
  AttackResult result;
  double spent = 0.0;

  static obs::Counter* const iterations =
      obs::GetCounter("peega_batch.iterations");
  static obs::Counter* const collected =
      obs::GetCounter("peega_batch.candidates");

  while (spent + std::min<double>(1.0, beta) <= budget + 1e-9) {
    result.status = attack_options.deadline.Check(
        "PEEGA-Batch iteration " + std::to_string(result.flips.size()));
    if (!result.status.ok()) break;  // best-so-far: whole batches so far
    const obs::TraceSpan iteration_span("peega_batch.iteration");
    iterations->Add(1);
    {
      const obs::TraceSpan score_span("peega_batch.score");
      result.status = engine.RefreshScores();
    }
    if (!result.status.ok()) {
      result.status = result.status.WithContext("PEEGA-Batch engine refresh");
      break;
    }

    std::vector<Candidate> candidates;
    {
      const obs::TraceSpan collect_span("peega_batch.collect");
      const int keep =
          options.gumbel_scale > 0.0f ? 0 : options.batch_size;
      candidates = CollectCandidates(
          g.num_nodes, num_features, access, edge_done, feature_done,
          attack_topology, attack_features, beta, keep,
          [&](int u, int v0, int v1, float* out) {
            engine.EdgeScoreRow(u, v0, v1, out);
          },
          [&](int v, int j) { return engine.FeatureScore(v, j) / beta; });
    }  // collect_span
    collected->Add(candidates.size());
    const obs::TraceSpan commit_span("peega_batch.commit");
    if (options.gumbel_scale > 0.0f) {
      for (Candidate& c : candidates) {
        c.score += GumbelNoise(options.gumbel_scale, rng);
      }
    }
    if (candidates.empty()) break;
    const int take = std::min<int>(options.batch_size,
                                   static_cast<int>(candidates.size()));
    std::partial_sort(candidates.begin(), candidates.begin() + take,
                      candidates.end(), RanksBefore);
    bool committed = false;
    for (int i = 0; i < take; ++i) {
      const Candidate& c = candidates[i];
      const double cost = c.is_feature ? beta : 1.0;
      if (spent + cost > budget + 1e-9) continue;
      if (c.is_feature) {
        engine.FlipFeature(c.a, c.b);
        feature_done.Insert(c.a, c.b);
        ++result.feature_modifications;
        result.flips.push_back({true, c.a, c.b});
      } else {
        engine.FlipEdge(c.a, c.b);
        edge_done.InsertSymmetric(c.a, c.b);
        ++result.edge_modifications;
        result.flips.push_back({false, c.a, c.b});
      }
      spent += cost;
      committed = true;
    }
    if (!committed) break;
  }

  const status::Status final_refresh = engine.RefreshScores();
  if (final_refresh.ok()) {
    result.final_objective = engine.Objective();
  } else if (result.status.ok()) {
    result.status = final_refresh.WithContext("PEEGA-Batch final refresh");
  }
  result.poisoned =
      g.WithAdjacency(engine.PoisonedAdjacency()).WithFeatures(engine.features());
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace

AttackResult PeegaBatchAttack::Attack(const graph::Graph& g,
                                      const AttackOptions& attack_options,
                                      linalg::Rng* rng) {
  if (options_.peega.engine == PeegaAttack::Engine::kIncremental) {
    return BatchWithEngine(options_, g, attack_options, rng);
  }
  const obs::TraceSpan attack_span("peega_batch.attack");
  const obs::StopWatch watch;
  const int budget =
      attack::ComputeBudget(g, attack_options.perturbation_rate);
  const AccessControl access(g.num_nodes, attack_options.attacker_nodes);
  const auto& peega = options_.peega;
  const bool attack_topology =
      peega.mode != PeegaAttack::Mode::kFeaturesOnly;
  const bool attack_features =
      peega.mode != PeegaAttack::Mode::kTopologyOnly;
  const float beta = static_cast<float>(attack_options.feature_cost);

  const Matrix reference = PeegaAttack::SurrogateRepresentation(
      g.adjacency, g.features, peega.layers);
  // Directed neighbor pairs of the clean topology (Eq. 6).
  std::vector<std::pair<int, int>> neighbor_pairs;
  {
    const auto& row_ptr = g.adjacency.row_ptr();
    const auto& col_idx = g.adjacency.col_idx();
    for (int v = 0; v < g.num_nodes; ++v) {
      for (int64_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
        neighbor_pairs.emplace_back(v, col_idx[k]);
      }
    }
  }

  Matrix dense = g.adjacency.ToDense();
  Matrix features = g.features;
  attack::FlipSet edge_done(g.num_nodes);
  attack::FlipSet feature_done(g.features.cols());
  AttackResult result;
  double spent = 0.0;

  static obs::Counter* const iterations =
      obs::GetCounter("peega_batch.iterations");
  static obs::Counter* const collected =
      obs::GetCounter("peega_batch.candidates");

  while (spent + std::min<double>(1.0, beta) <= budget + 1e-9) {
    result.status = attack_options.deadline.Check(
        "PEEGA-Batch iteration " + std::to_string(result.flips.size()));
    if (!result.status.ok()) break;  // best-so-far: whole batches so far
    const obs::TraceSpan iteration_span("peega_batch.iteration");
    iterations->Add(1);
    Tape tape;
    Var a = tape.Input(dense, attack_topology);
    Var x = tape.Input(features, attack_features);
    {
      const obs::TraceSpan score_span("peega_batch.score");
      Var a_n = tape.GcnNormalizeDense(a);
      Var m_hat = x;
      for (int l = 0; l < peega.layers; ++l) m_hat = tape.MatMul(a_n, m_hat);
      Var obj = tape.SumRowPNorm(m_hat, reference, peega.norm_p);
      if (peega.lambda != 0.0f) {
        obj = tape.Add(obj, tape.Scale(tape.SumEdgePNorm(m_hat, reference,
                                                         neighbor_pairs,
                                                         peega.norm_p),
                                       peega.lambda));
      }
      if (!std::isfinite(static_cast<double>(obj.value()(0, 0)))) {
        result.status = status::NumericFault(
            "non-finite PEEGA-Batch objective on the tape");
        break;  // best-so-far: last committed batch stands
      }
      tape.Backward(obj);
    }

    // Sharded candidate scan (see CollectCandidates), rank, commit
    // top-k — identical collection order and ranking as the engine path.
    std::vector<Candidate> candidates;
    {
      const obs::TraceSpan collect_span("peega_batch.collect");
      const Matrix& a_grad = a.grad();
      const Matrix& x_grad = x.grad();
      const int keep =
          options_.gumbel_scale > 0.0f ? 0 : options_.batch_size;
      candidates = CollectCandidates(
          g.num_nodes, g.features.cols(), access, edge_done, feature_done,
          attack_topology, attack_features, beta, keep,
          [&](int u, int v0, int v1, float* out) {
            for (int v = v0; v < v1; ++v) {
              const float direction = 1.0f - 2.0f * dense(u, v);
              out[v - v0] = direction * (a_grad(u, v) + a_grad(v, u));
            }
          },
          [&](int v, int j) {
            const float direction = 1.0f - 2.0f * features(v, j);
            return direction * x_grad(v, j) / beta;
          });
    }  // collect_span
    collected->Add(candidates.size());
    const obs::TraceSpan commit_span("peega_batch.commit");
    // Gumbel noise draws stay on the calling thread, in candidate-list
    // order — the same sequence of RNG draws as a serial scan, so seeded
    // runs reproduce at any thread count.
    if (options_.gumbel_scale > 0.0f) {
      for (Candidate& c : candidates) {
        c.score += GumbelNoise(options_.gumbel_scale, rng);
      }
    }
    if (candidates.empty()) break;
    const int take = std::min<int>(options_.batch_size,
                                   static_cast<int>(candidates.size()));
    std::partial_sort(candidates.begin(), candidates.begin() + take,
                      candidates.end(), RanksBefore);
    bool committed = false;
    for (int i = 0; i < take; ++i) {
      const Candidate& c = candidates[i];
      const double cost = c.is_feature ? beta : 1.0;
      if (spent + cost > budget + 1e-9) continue;
      if (c.is_feature) {
        attack::FlipFeature(&features, c.a, c.b);
        feature_done.Insert(c.a, c.b);
        ++result.feature_modifications;
        result.flips.push_back({true, c.a, c.b});
      } else {
        attack::FlipEdge(&dense, c.a, c.b);
        edge_done.InsertSymmetric(c.a, c.b);
        ++result.edge_modifications;
        result.flips.push_back({false, c.a, c.b});
      }
      spent += cost;
      committed = true;
    }
    if (!committed) break;
  }

  // The batch objective ignores target_nodes (SumRowPNorm over all
  // rows), so evaluate the final value untargeted too.
  PeegaAttack::Options eval_options = peega;
  eval_options.target_nodes.clear();
  result.final_objective =
      PeegaAttack(eval_options).Objective(g, dense, features);
  if (!std::isfinite(result.final_objective) && result.status.ok()) {
    result.status =
        status::NumericFault("non-finite PEEGA-Batch final objective");
  }
  // Sparse commit: toggle the recorded edge flips on the clean CSR
  // instead of rescanning the dense tape matrix; bitwise-identical to
  // DenseToAdjacency(dense) (tests/scale_test.cc).
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
