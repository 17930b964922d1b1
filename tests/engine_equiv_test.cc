// Differential tests of the incremental PEEGA objective engine against
// the autograd-tape reference: both engines must commit the IDENTICAL
// flip sequence and report matching objectives on every configuration
// (core/peega_engine.h explains why bitwise agreement — not just
// closeness — is the design contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/attacker.h"
#include "attack/common.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "core/peega_engine.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace repro::core {
namespace {

using attack::AttackOptions;
using attack::AttackResult;
using attack::Flip;
using graph::Graph;
using linalg::Rng;

Graph SbmGraph(uint64_t seed, int num_nodes = 60) {
  graph::SyntheticConfig config;
  config.name = "sbm-equiv";
  config.num_nodes = num_nodes;
  config.num_classes = 3;
  config.feature_dim = 48;
  config.avg_degree = 4.0;
  Rng rng(seed);
  return graph::MakeSynthetic(config, &rng);
}

Graph PolblogsGraph(uint64_t seed) {
  Rng rng(seed);
  return graph::MakePolblogsLike(&rng, 0.12);
}

std::string FlipString(const std::vector<Flip>& flips) {
  std::ostringstream os;
  for (const Flip& f : flips) {
    os << (f.is_feature ? "F " : "E ") << f.a << " " << f.b << "\n";
  }
  return os.str();
}

// Runs the same attack through both engines and checks the differential
// contract: identical flip sequences, identical flip counts, identical
// poisoned graphs, and objectives within 1e-4 relative.
void ExpectEnginesAgree(const Graph& g, PeegaAttack::Options peega,
                        const AttackOptions& options, uint64_t rng_seed = 99) {
  peega.engine = PeegaAttack::Engine::kTape;
  Rng rng_tape(rng_seed);
  const AttackResult tape = PeegaAttack(peega).Attack(g, options, &rng_tape);

  peega.engine = PeegaAttack::Engine::kIncremental;
  Rng rng_inc(rng_seed);
  const AttackResult inc = PeegaAttack(peega).Attack(g, options, &rng_inc);

  EXPECT_EQ(FlipString(tape.flips), FlipString(inc.flips));
  EXPECT_EQ(tape.edge_modifications, inc.edge_modifications);
  EXPECT_EQ(tape.feature_modifications, inc.feature_modifications);
  EXPECT_EQ(graph::ComputeEdgeDiff(tape.poisoned, inc.poisoned).total(), 0);
  EXPECT_EQ(graph::FeatureDiffCount(tape.poisoned, inc.poisoned), 0);
  const double scale = std::max(1.0, std::abs(tape.final_objective));
  EXPECT_NEAR(tape.final_objective, inc.final_objective, 1e-4 * scale);
  inc.poisoned.CheckInvariants();
}

void ExpectBatchEnginesAgree(const Graph& g, PeegaBatchAttack::Options batch,
                             const AttackOptions& options,
                             uint64_t rng_seed = 7) {
  batch.peega.engine = PeegaAttack::Engine::kTape;
  Rng rng_tape(rng_seed);
  const AttackResult tape =
      PeegaBatchAttack(batch).Attack(g, options, &rng_tape);

  batch.peega.engine = PeegaAttack::Engine::kIncremental;
  Rng rng_inc(rng_seed);
  const AttackResult inc =
      PeegaBatchAttack(batch).Attack(g, options, &rng_inc);

  EXPECT_EQ(FlipString(tape.flips), FlipString(inc.flips));
  EXPECT_EQ(graph::ComputeEdgeDiff(tape.poisoned, inc.poisoned).total(), 0);
  EXPECT_EQ(graph::FeatureDiffCount(tape.poisoned, inc.poisoned), 0);
  const double scale = std::max(1.0, std::abs(tape.final_objective));
  EXPECT_NEAR(tape.final_objective, inc.final_objective, 1e-4 * scale);
  inc.poisoned.CheckInvariants();
}

TEST(EngineEquivalence, DefaultOptionsOnSbm) {
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(11), PeegaAttack::Options(), options);
}

TEST(EngineEquivalence, DefaultOptionsOnPolblogsLike) {
  AttackOptions options;
  options.perturbation_rate = 0.05;
  ExpectEnginesAgree(PolblogsGraph(12), PeegaAttack::Options(), options);
}

TEST(EngineEquivalence, NormP1) {
  PeegaAttack::Options peega;
  peega.norm_p = 1;
  AttackOptions options;
  options.perturbation_rate = 0.08;
  ExpectEnginesAgree(SbmGraph(13), peega, options);
}

TEST(EngineEquivalence, NormP3) {
  PeegaAttack::Options peega;
  peega.norm_p = 3;
  AttackOptions options;
  options.perturbation_rate = 0.08;
  ExpectEnginesAgree(SbmGraph(14), peega, options);
}

TEST(EngineEquivalence, OneLayerSurrogate) {
  PeegaAttack::Options peega;
  peega.layers = 1;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(15), peega, options);
}

TEST(EngineEquivalence, ThreeLayerSurrogate) {
  PeegaAttack::Options peega;
  peega.layers = 3;
  AttackOptions options;
  options.perturbation_rate = 0.08;
  ExpectEnginesAgree(SbmGraph(16), peega, options);
}

TEST(EngineEquivalence, SelfViewOnlyLambdaZero) {
  PeegaAttack::Options peega;
  peega.lambda = 0.0f;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(17), peega, options);
}

TEST(EngineEquivalence, TopologyOnlyMode) {
  PeegaAttack::Options peega;
  peega.mode = PeegaAttack::Mode::kTopologyOnly;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(18), peega, options);
}

TEST(EngineEquivalence, FeaturesOnlyMode) {
  PeegaAttack::Options peega;
  peega.mode = PeegaAttack::Mode::kFeaturesOnly;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(19), peega, options);
}

TEST(EngineEquivalence, TargetedAttack) {
  PeegaAttack::Options peega;
  peega.target_nodes = {3, 8, 21, 40};
  AttackOptions options;
  options.perturbation_rate = 0.08;
  ExpectEnginesAgree(SbmGraph(20), peega, options);
}

TEST(EngineEquivalence, FractionalFeatureCost) {
  AttackOptions options;
  options.perturbation_rate = 0.1;
  options.feature_cost = 0.5;
  ExpectEnginesAgree(SbmGraph(21), PeegaAttack::Options(), options);
}

TEST(EngineEquivalence, RestrictedAttackerNodes) {
  AttackOptions options;
  options.perturbation_rate = 0.1;
  for (int v = 0; v < 20; ++v) options.attacker_nodes.push_back(v);
  ExpectEnginesAgree(SbmGraph(22), PeegaAttack::Options(), options);
}

// The flip sequence must agree between engines at EVERY thread count —
// both engines chunk deterministically, so the sequence must also be
// the same across thread counts.
TEST(EngineEquivalence, AgreesAtOneTwoAndEightThreads) {
  const Graph g = SbmGraph(23);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  std::string first_sequence;
  for (const int threads : {1, 2, 8}) {
    parallel::SetNumThreads(threads);
    PeegaAttack::Options peega;
    peega.engine = PeegaAttack::Engine::kIncremental;
    Rng rng(99);
    const AttackResult inc = PeegaAttack(peega).Attack(g, options, &rng);
    ExpectEnginesAgree(g, PeegaAttack::Options(), options);
    if (first_sequence.empty()) {
      first_sequence = FlipString(inc.flips);
    } else {
      EXPECT_EQ(first_sequence, FlipString(inc.flips))
          << "at " << threads << " threads";
    }
  }
  parallel::SetNumThreads(0);
}

TEST(BatchEngineEquivalence, DeterministicTopK) {
  PeegaBatchAttack::Options batch;
  batch.batch_size = 8;
  AttackOptions options;
  options.perturbation_rate = 0.12;
  ExpectBatchEnginesAgree(SbmGraph(24), batch, options);
}

TEST(BatchEngineEquivalence, GumbelPerturbedSameSeed) {
  PeegaBatchAttack::Options batch;
  batch.batch_size = 6;
  batch.gumbel_scale = 0.05f;
  AttackOptions options;
  options.perturbation_rate = 0.12;
  ExpectBatchEnginesAgree(SbmGraph(25), batch, options);
}

TEST(BatchEngineEquivalence, PolblogsLikeWithFractionalBeta) {
  PeegaBatchAttack::Options batch;
  batch.batch_size = 8;
  AttackOptions options;
  options.perturbation_rate = 0.06;
  options.feature_cost = 0.5;
  ExpectBatchEnginesAgree(PolblogsGraph(26), batch, options);
}

TEST(BatchEngineEquivalence, AgreesAtOneTwoAndEightThreads) {
  const Graph g = SbmGraph(27);
  PeegaBatchAttack::Options batch;
  batch.batch_size = 8;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  for (const int threads : {1, 2, 8}) {
    parallel::SetNumThreads(threads);
    ExpectBatchEnginesAgree(g, batch, options);
  }
  parallel::SetNumThreads(0);
}

// --- Fused row scorer ----------------------------------------------------
//
// The engine scores node pairs two ways from the same low-rank factors:
// the per-pair EdgeScore (row-major factors, scalar) and the fused row
// kernel behind EdgeScoreRow (packed panels, SIMD-dispatched). The
// greedy loops scan with the row kernel; both must agree bit for bit.

uint32_t Bits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Every pair (u, v), v != u, through full rows and through the scan's
// unaligned suffixes [u + 1, n), against EdgeScore(u, v).
int RowPairMismatches(const PeegaEngine& engine) {
  const int n = engine.num_nodes();
  std::vector<float> row(static_cast<size_t>(n));
  int mismatches = 0;
  for (int u = 0; u < n; ++u) {
    engine.EdgeScoreRow(u, 0, n, row.data());
    for (int v = 0; v < n; ++v) {
      if (v != u && Bits(row[v]) != Bits(engine.EdgeScore(u, v))) {
        ++mismatches;
      }
    }
    engine.EdgeScoreRow(u, u + 1, n, row.data());
    for (int v = u + 1; v < n; ++v) {
      if (Bits(row[v - u - 1]) != Bits(engine.EdgeScore(u, v))) ++mismatches;
    }
  }
  return mismatches;
}

// Fresh build, then after edge flips (one existing edge, one new) and a
// feature flip have gone through the incremental panel refresh.
void ExpectRowsMatchPairs(const Graph& g, const PeegaEngine::Config& config,
                          const std::string& label) {
  PeegaEngine engine(g, config);
  ASSERT_TRUE(engine.RefreshScores().ok()) << label;
  EXPECT_EQ(RowPairMismatches(engine), 0) << label << ", fresh build";
  const int neighbor = g.adjacency.col_idx()[g.adjacency.row_ptr()[0]];
  engine.FlipEdge(0, neighbor);
  engine.FlipEdge(1, g.num_nodes - 2);
  engine.FlipFeature(2, 3);
  ASSERT_TRUE(engine.RefreshScores().ok()) << label;
  EXPECT_EQ(RowPairMismatches(engine), 0) << label << ", after flips";
}

TEST(FusedRowScorer, MatchesPerPairEdgeScoreOnEveryPairAtN500) {
  const Graph g = SbmGraph(41, 500);
  for (const int layers : {1, 2, 3}) {
    for (const int p : {1, 2}) {
      for (const float lambda : {0.0f, 0.01f}) {
        PeegaEngine::Config config;
        config.layers = layers;
        config.norm_p = p;
        config.lambda = lambda;
        ExpectRowsMatchPairs(g, config,
                             "l=" + std::to_string(layers) +
                                 " p=" + std::to_string(p) +
                                 " lambda=" + std::to_string(lambda));
      }
    }
  }
  // l = 4 is Fig. 7(b)'s deepest surrogate; l = 5 takes the fallbacks.
  for (const int layers : {4, 5}) {
    PeegaEngine::Config deep;
    deep.layers = layers;
    ExpectRowsMatchPairs(g, deep, "l=" + std::to_string(layers));
  }
  PeegaEngine::Config targeted;
  targeted.target_nodes = {7, 99, 250, 498};
  ExpectRowsMatchPairs(g, targeted, "targeted");
  PeegaEngine::Config topology_only;
  topology_only.attack_features = false;
  ExpectRowsMatchPairs(g, topology_only, "topology only");
}

#ifndef NDEBUG
// A features-only engine keeps no topology factors (no panels, no
// degree chain), so its topology scores are a debug-checked misuse.
TEST(FusedRowScorerDeathTest, TopologyScoresNeedTopologyMode) {
  const Graph g = SbmGraph(41, 60);
  PeegaEngine::Config config;
  config.attack_topology = false;
  PeegaEngine engine(g, config);
  ASSERT_TRUE(engine.RefreshScores().ok());
  std::vector<float> row(static_cast<size_t>(g.num_nodes));
  EXPECT_DEATH(engine.EdgeScore(0, 1), "need attack_topology");
  EXPECT_DEATH(engine.EdgeScoreRow(0, 1, g.num_nodes, row.data()),
               "need attack_topology");
  EXPECT_DEATH(engine.PairGradient(0, 1), "need attack_topology");
}
#endif

// The flip sequence of the row-scanned engine equals the tape oracle's
// over the depth / norm / global-view grid (plus l = 4, Fig. 7(b)'s
// deepest, and l = 5, past the fixed-depth fast paths), and with a targeted
// objective on restricted attacker nodes (the scan then scores only the
// allowed pairs of uncontrolled rows, and frozen pairs pile up).
TEST(FusedRowScorer, FlipSequencesMatchTapeAcrossConfigGrid) {
  AttackOptions options;
  options.perturbation_rate = 0.1;
  uint64_t seed = 60;
  for (const int layers : {1, 2, 3}) {
    for (const int p : {1, 2}) {
      for (const float lambda : {0.0f, 0.01f}) {
        PeegaAttack::Options peega;
        peega.layers = layers;
        peega.norm_p = p;
        peega.lambda = lambda;
        ExpectEnginesAgree(SbmGraph(++seed), peega, options);
      }
    }
  }
  for (const int layers : {4, 5}) {
    PeegaAttack::Options deep;
    deep.layers = layers;
    ExpectEnginesAgree(SbmGraph(++seed), deep, options);
  }
  PeegaAttack::Options targeted;
  targeted.target_nodes = {3, 8, 21, 40};
  AttackOptions restricted = options;
  for (int v = 10; v < 30; ++v) restricted.attacker_nodes.push_back(v);
  ExpectEnginesAgree(SbmGraph(++seed), targeted, restricted);
}

// Serial row-major reference scan with the per-pair skip conditions.
attack::EdgeCandidate SerialBestEdge(
    int n, const attack::AccessControl& access, const attack::FlipSet& frozen,
    const std::vector<float>& scores, uint64_t* considered) {
  attack::EdgeCandidate best;
  best.score = -std::numeric_limits<float>::infinity();
  *considered = 0;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (!access.EdgeAllowed(u, v) || frozen.Contains(u, v)) continue;
      ++*considered;
      const float s = scores[static_cast<size_t>(u) * n + v];
      if (s > best.score) best = {u, v, s};
    }
  }
  return best;
}

// Ties planted inside the first row chunk but in different column
// tiles: the tiled scan visits (20, 100) before (5, 700) before
// (3, 1190), yet must return the lowest pair, like a row-major scan —
// also once the winner is frozen or not allowed, at every thread count,
// with the same edges_scanned count.
TEST(FusedRowScan, PlantedTieResolvesToLowestPair) {
  const int n = 1200;  // many column tiles and 32-row chunks
  std::vector<float> scores(static_cast<size_t>(n) * n);
  linalg::Rng rng(5);
  for (float& s : scores) s = static_cast<float>(rng.Uniform(0.0, 1.0));
  const std::vector<std::pair<int, int>> planted = {
      {20, 100}, {5, 700}, {3, 1190}, {640, 1000}};
  for (const auto& [u, v] : planted) {
    scores[static_cast<size_t>(u) * n + v] = 2.0f;
  }
  const auto score_row = [&](int u, int v0, int v1, float* out) {
    std::copy(scores.begin() + static_cast<int64_t>(u) * n + v0,
              scores.begin() + static_cast<int64_t>(u) * n + v1, out);
  };
  std::vector<int> attackers;
  for (int v = 4; v < n; v += 3) attackers.push_back(v);  // 5, 20, 700, ...
  attack::FlipSet none(n);
  attack::FlipSet frozen(n);
  frozen.InsertSymmetric(3, 1190);
  frozen.InsertSymmetric(0, 1);
  obs::Counter* const scanned = obs::GetCounter("attack.edges_scanned");
  struct Case {
    const char* name;
    attack::AccessControl access;
    const attack::FlipSet* exclude;
    int u, v;
  };
  const std::vector<Case> cases = {
      {"all nodes", attack::AccessControl(n, {}), &none, 3, 1190},
      {"winner frozen", attack::AccessControl(n, {}), &frozen, 5, 700},
      {"winner not allowed", attack::AccessControl(n, attackers), &none, 5,
       700},
  };
  for (const Case& c : cases) {
    uint64_t expected_scanned = 0;
    const attack::EdgeCandidate expected =
        SerialBestEdge(n, c.access, *c.exclude, scores, &expected_scanned);
    ASSERT_EQ(expected.u, c.u) << c.name;
    ASSERT_EQ(expected.v, c.v) << c.name;
    for (const int threads : {1, 2, 8}) {
      parallel::SetNumThreads(threads);
      const uint64_t before = scanned->value();
      const attack::EdgeCandidate got =
          attack::BestEdgeFlipRows(n, c.access, c.exclude, score_row);
      EXPECT_EQ(scanned->value() - before, expected_scanned)
          << c.name << " at " << threads << " threads";
      EXPECT_EQ(got.u, expected.u) << c.name << " at " << threads;
      EXPECT_EQ(got.v, expected.v) << c.name << " at " << threads;
      EXPECT_EQ(Bits(got.score), Bits(expected.score)) << c.name;
    }
  }
  parallel::SetNumThreads(0);
}

}  // namespace
}  // namespace repro::core
