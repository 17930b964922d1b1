#ifndef PEEGA_ATTACK_COMMON_H_
#define PEEGA_ATTACK_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace repro::attack {

/// Tracks which edges / feature rows an attacker may modify, derived from
/// `AttackOptions::attacker_nodes`.
class AccessControl {
 public:
  AccessControl(int num_nodes, const std::vector<int>& attacker_nodes);

  /// True iff the attacker controls node v.
  bool Controls(int v) const { return controlled_[v]; }
  /// True iff the edge (u, v) may be flipped.
  bool EdgeAllowed(int u, int v) const {
    return controlled_[u] || controlled_[v];
  }
  /// True iff features of node v may be flipped.
  bool FeatureAllowed(int v) const { return controlled_[v]; }
  bool all_nodes() const { return all_nodes_; }

 private:
  std::vector<char> controlled_;
  bool all_nodes_;
};

/// Sparse set of frozen (row, col) coordinates — the greedy loops'
/// "already flipped once" memory. Replaces the dense N x N / N x F
/// freeze matrices that capped attack memory at O(N²): storage is
/// O(flips committed), which the perturbation budget keeps tiny.
///
/// Deterministic by construction (a sorted vector of packed keys, no
/// hashing), so scans that consult it stay bitwise-identical at any
/// thread count. Insert is O(size) — irrelevant at budget-bounded sizes
/// — and Contains is O(log size); row scans use ForEachAbsent, which
/// merges a row's sorted keys instead of searching once per column.
class FlipSet {
 public:
  /// `cols` is the coordinate stride: the node count for edge sets, the
  /// feature dimension for feature sets.
  explicit FlipSet(int cols) : cols_(cols) {}

  bool Contains(int r, int c) const {
    return std::binary_search(keys_.begin(), keys_.end(), Key(r, c));
  }

  void Insert(int r, int c) {
    const int64_t key = Key(r, c);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) keys_.insert(it, key);
  }

  /// Freezes an undirected edge: both (u, v) and (v, u).
  void InsertSymmetric(int u, int v) {
    Insert(u, v);
    Insert(v, u);
  }

  /// Toggles an undirected edge's membership: present → removed,
  /// absent → inserted. Used by samplers (random / DICE) that may
  /// revisit a pair, where the set tracks the delta against the clean
  /// CSR rather than a freeze list.
  void ToggleSymmetric(int u, int v) {
    Toggle(u, v);
    Toggle(v, u);
  }

  size_t size() const { return keys_.size(); }

  /// Calls fn(c) for each c in [c0, c1), ascending, with (r, c) not in
  /// the set: one binary search, then a merge walk along the row's keys.
  template <typename Fn>
  void ForEachAbsent(int r, int c0, int c1, const Fn& fn) const {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), Key(r, c0));
    const int64_t row = Key(r, 0);
    for (int c = c0; c < c1; ++c) {
      if (it != keys_.end() && *it == row + c) {
        ++it;
        continue;
      }
      fn(c);
    }
  }

 private:
  void Toggle(int r, int c) {
    const int64_t key = Key(r, c);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) {
      keys_.erase(it);
    } else {
      keys_.insert(it, key);
    }
  }

  int64_t Key(int r, int c) const {
    return static_cast<int64_t>(r) * cols_ + c;
  }

  int64_t cols_;
  std::vector<int64_t> keys_;  // sorted
};

/// Flips A[u][v] and A[v][u] between 0 and 1 in a dense adjacency.
void FlipEdge(linalg::Matrix* dense_adjacency, int u, int v);

/// Flips X[v][j] between 0 and 1.
void FlipFeature(linalg::Matrix* features, int v, int j);

/// Scans a dense gradient-score matrix over node pairs (u < v) and
/// returns the best allowed flip. The score of flipping (u, v) is
/// grad[u][v] * (1 - 2 A[u][v]) summed with its symmetric mirror.
/// Coordinates in `exclude` (the committed-flip freeze set) are
/// skipped — greedy attackers would otherwise oscillate on a single
/// edge after reaching a local optimum. Returns {-1, -1, -inf} when no
/// pair is allowed.
///
/// Parallelized over row chunks with a per-chunk argmax merged in chunk
/// order; ties resolve to the lowest (u, v), so the returned flip — and
/// hence the greedy commit order of every attacker built on it — is
/// bitwise-identical at any thread count.
struct EdgeCandidate {
  int u = -1;
  int v = -1;
  float score = 0.0f;
};
EdgeCandidate BestEdgeFlip(const linalg::Matrix& grad,
                           const linalg::Matrix& dense_adjacency,
                           const AccessControl& access,
                           const FlipSet* exclude = nullptr);

/// Best allowed feature flip: score = grad[v][j] * (1 - 2 X[v][j]);
/// coordinates in `exclude` are skipped. Parallelized like
/// `BestEdgeFlip` with the same lowest-index tie-break guarantee.
struct FeatureCandidate {
  int node = -1;
  int dim = -1;
  float score = 0.0f;
};
FeatureCandidate BestFeatureFlip(const linalg::Matrix& grad,
                                 const linalg::Matrix& features,
                                 const AccessControl& access,
                                 const FlipSet* exclude = nullptr);

/// Rebuilds a binary symmetric SparseMatrix from a dense 0/1 adjacency.
linalg::SparseMatrix DenseToAdjacency(const linalg::Matrix& dense);

namespace internal {

/// Rows (u) per chunk of the parallel candidate scans. Any partition is
/// deterministic here: per-chunk argmax keeps the lowest index on ties,
/// and the ordered chunk merge keeps the earlier chunk on ties, which
/// together reproduce the serial scan's lowest-index winner at any
/// thread count (the greedy commit order must not depend on the
/// machine — see DESIGN.md, "Determinism & threading").
constexpr int64_t kScanRowGrain = 32;

/// Columns per tile of `BestEdgeFlipRows`: the v-slice of the factor
/// panels one tile reads stays in L2 across a chunk's rows. 64 was the
/// fastest of 8..512 for n = 1e3..1e4 and F = 32..580 (EXPERIMENTS.md).
constexpr int kScanColTile = 64;

}  // namespace internal

/// Calls visit(v, score) for every open pair (u, v), v in [v0, v1)
/// ascending: allowed by `access` and not in `exclude`. Scores come from
/// `score_row(u, a, b, out)`, which writes the scores of (u, a..b-1)
/// into out[0..b-a): a row the attacker controls is scored as one range
/// into `buffer` (>= v1 - v0 floats), any other row only at the
/// attacker-controlled v it may pair with.
template <typename RowFn, typename Visit>
void VisitOpenPairs(const AccessControl& access, const FlipSet* exclude,
                    int u, int v0, int v1, const RowFn& score_row,
                    float* buffer, const Visit& visit) {
  const bool whole_row = access.Controls(u);
  if (whole_row) score_row(u, v0, v1, buffer);
  const auto open = [&](int v) {
    if (whole_row) {
      visit(v, buffer[v - v0]);
    } else if (access.Controls(v)) {
      float score;
      score_row(u, v, v + 1, &score);
      visit(v, score);
    }
  };
  if (exclude != nullptr) {
    exclude->ForEachAbsent(u, v0, v1, open);
  } else {
    for (int v = v0; v < v1; ++v) open(v);
  }
}

/// Row form of `BestEdgeFlip`: the same chunked parallel argmax with the
/// same skip conditions, `attack.edges_scanned` count and lowest-(u, v)
/// tie-break, with scores from a caller-supplied row scorer
/// `score_row(u, v0, v1, out)` that writes the flip scores of (u, v),
/// v in [v0, v1), into out[v - v0]. The incremental PEEGA engine plugs
/// in its fused row kernel here.
///
/// Within a chunk of kScanRowGrain rows the scan walks column tiles of
/// kScanColTile, every row per tile, so the argmax compares (u, v)
/// explicitly on equal scores; with the ordered chunk merge keeping the
/// earlier chunk, the winner is the lowest (u, v) of the best score at
/// any thread count, as in a serial row-major scan.
template <typename RowFn>
EdgeCandidate BestEdgeFlipRows(int num_nodes, const AccessControl& access,
                               const FlipSet* exclude,
                               const RowFn& score_row) {
  const obs::TraceSpan span("attack.best_edge_flip");
  static obs::Counter* const scans = obs::GetCounter("attack.edge_scans");
  static obs::Counter* const scanned =
      obs::GetCounter("attack.edges_scanned");
  scans->Add(1);
  EdgeCandidate identity;
  identity.score = -std::numeric_limits<float>::infinity();
  EdgeCandidate best = parallel::ParallelReduce<EdgeCandidate>(
      0, num_nodes, internal::kScanRowGrain, identity,
      [&](int64_t u0, int64_t u1) {
        EdgeCandidate local;
        local.score = -std::numeric_limits<float>::infinity();
        // Candidate count accumulated per chunk, published once: the
        // total is a function of the scan inputs alone (deterministic
        // at any thread count) and the atomic add stays off the inner
        // loop.
        uint64_t considered = 0;
        std::vector<float> buffer(internal::kScanColTile);
        const int first = static_cast<int>(u0) + 1;
        for (int t0 = first - first % internal::kScanColTile; t0 < num_nodes;
             t0 += internal::kScanColTile) {
          const int t1 = std::min(t0 + internal::kScanColTile, num_nodes);
          for (int u = static_cast<int>(u0); u < static_cast<int>(u1); ++u) {
            const int v0 = std::max(u + 1, t0);
            if (v0 >= t1) continue;
            VisitOpenPairs(
                access, exclude, u, v0, t1, score_row, buffer.data(),
                [&](int v, float s) {
                  ++considered;
                  if (s > local.score ||
                      (s == local.score && local.u >= 0 &&
                       (u < local.u || (u == local.u && v < local.v)))) {
                    local = {u, v, s};
                  }
                });
          }
        }
        scanned->Add(considered);
        return local;
      },
      [](const EdgeCandidate& acc, const EdgeCandidate& chunk) {
        return chunk.score > acc.score ? chunk : acc;
      });
  if (best.u < 0) best.score = -std::numeric_limits<float>::infinity();
  return best;
}

/// Per-pair form of `BestEdgeFlipRows` over a `score(u, v)` callable
/// (u < v), e.g. a dense gradient or the engine's per-pair EdgeScore.
template <typename ScoreFn>
EdgeCandidate BestEdgeFlipScored(int num_nodes, const AccessControl& access,
                                 const FlipSet* exclude,
                                 const ScoreFn& score) {
  return BestEdgeFlipRows(num_nodes, access, exclude,
                          [&](int u, int v0, int v1, float* out) {
                            for (int v = v0; v < v1; ++v) {
                              out[v - v0] = score(u, v);
                            }
                          });
}

/// Generic form of `BestFeatureFlip` over a `score(v, j)` callable; same
/// contract as `BestEdgeFlipScored`.
template <typename ScoreFn>
FeatureCandidate BestFeatureFlipScored(int num_nodes, int num_features,
                                       const AccessControl& access,
                                       const FlipSet* exclude,
                                       const ScoreFn& score) {
  const obs::TraceSpan span("attack.best_feature_flip");
  static obs::Counter* const scans = obs::GetCounter("attack.feature_scans");
  static obs::Counter* const scanned =
      obs::GetCounter("attack.features_scanned");
  scans->Add(1);
  FeatureCandidate identity;
  identity.score = -std::numeric_limits<float>::infinity();
  FeatureCandidate best = parallel::ParallelReduce<FeatureCandidate>(
      0, num_nodes, internal::kScanRowGrain, identity,
      [&](int64_t v0, int64_t v1) {
        FeatureCandidate local;
        local.score = -std::numeric_limits<float>::infinity();
        uint64_t considered = 0;
        for (int v = static_cast<int>(v0); v < static_cast<int>(v1); ++v) {
          if (!access.FeatureAllowed(v)) continue;
          for (int j = 0; j < num_features; ++j) {
            if (exclude != nullptr && exclude->Contains(v, j)) continue;
            ++considered;
            const float s = score(v, j);
            if (s > local.score) {
              local = {v, j, s};
            }
          }
        }
        scanned->Add(considered);
        return local;
      },
      [](const FeatureCandidate& acc, const FeatureCandidate& chunk) {
        return chunk.score > acc.score ? chunk : acc;
      });
  if (best.node < 0) best.score = -std::numeric_limits<float>::infinity();
  return best;
}

}  // namespace repro::attack

#endif  // PEEGA_ATTACK_COMMON_H_
