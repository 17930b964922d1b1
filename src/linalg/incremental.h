#ifndef PEEGA_LINALG_INCREMENTAL_H_
#define PEEGA_LINALG_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace repro::linalg {

/// \file
/// Row kernels for the incremental PEEGA objective engine
/// (core/peega_engine.h).
///
/// The engine maintains the poisoned adjacency as sorted neighbor lists
/// plus per-node GCN scales s_i = 1/sqrt(deg_i + 1), refreshes only the
/// N × F factor rows a flip touched, and scores node pairs on the fly
/// from those factors. Each kernel reproduces the float accumulation
/// order of the dense tape exactly — `NormalizedSpMMRows` matches `SpMM`
/// on the normalized adjacency (ascending stored-column order with the
/// self-loop merged in sorted position, entry value s_r * s_k) and
/// `EdgeScoreRow` matches the tape's `MatMulTransB` adjacency-gradient
/// terms (ascending-j float dots) and its degree chain — so a refreshed
/// row or an on-the-fly score is bitwise identical to the dense autograd
/// tape path. That bitwise agreement is what makes the tape engine a
/// differential-testing oracle for the incremental engine (see
/// DESIGN.md, "Incremental objective engine").
///
/// Threading: `NormalizedSpMMRows` chunks over the given row subset with
/// disjoint output rows; `EdgeScoreRow` is serial and is called from the
/// row-chunked greedy scans. Results are bitwise-deterministic at any
/// thread count.

/// For each r in `rows`: out[r] = sum over k in sorted({r} ∪ neighbors[r])
/// of (scale[r] * scale[k]) * b[k] — row r of A_n * B for the GCN-
/// normalized adjacency A_n = D^{-1/2}(A + I)D^{-1/2} implied by
/// `neighbors`/`scale`. Rows of `out` not listed in `rows` are untouched.
/// O(sum_r (deg_r + 1) * b.cols()).
void NormalizedSpMMRows(const std::vector<std::vector<int>>& neighbors,
                        const std::vector<float>& scale,
                        const std::vector<int>& rows, const Matrix& b,
                        Matrix* out);

/// NormalizedSpMMRows over every row: out = A_n * B. O(nnz * b.cols()).
void NormalizedSpMM(const std::vector<std::vector<int>>& neighbors,
                    const std::vector<float>& scale, const Matrix& b,
                    Matrix* out);

/// Zeroed factor panels for `EdgeScoreRow` over n nodes: `blocks`
/// factor matrices of n × `features`, packed in node groups of eight so
/// that one group's values for a (block, feature) are contiguous (the
/// layout `kernels::PanelOffset` defines). O(blocks · n · features).
Matrix EdgeScorePanels(int n, int features, int blocks);

/// Copies `rows` of the n × F `factor` into panel block `block`.
/// O(|rows| · F).
void StorePanelRows(const Matrix& factor, const std::vector<int>& rows,
                    int block, Matrix* panels);

/// Empty support lists for `EdgeScoreRow` over n nodes: one slot of
/// `features` + 1 ints per node group of the panels. O(n · F / 8).
std::vector<int> EdgeScoreSupport(int n, int features);

/// Rebuilds the support of every node group holding one of `rows`: the
/// count, then the ascending features at which some node of the group
/// has a nonzero entry in the n × F matrix `x` (H_0 = X).
/// O(|rows| · 8 · F).
void StoreGroupSupport(const Matrix& x, const std::vector<int>& rows,
                       std::vector<int>* support);

/// Row u of PEEGA's edge-score matrix over v in [v0, v1), computed on
/// the fly from the low-rank factors of the relaxed-adjacency gradient
/// G_N = Σ_k W_k H_{l-1-k}ᵀ:
///   out[v - v0] = ±(P(u, v) + P(v, u)),
///   P(a, b) = ((G_N(a, b) · s_b) · s_a) + ddeg_a,
/// negated where v is in `neighbors` (the sorted neighbor list of u:
/// flipping an existing edge deletes it). `panels` holds 2·l blocks:
/// block k is W_k, block l + k is H_{l-1-k}; `support` is H_0's group
/// support (StoreGroupSupport), which the dots against the sparse H_0
/// walk instead of all F features. Bitwise equal to the tape's
/// (1 - 2A[u][v]) · (grad[u][v] + grad[v][u]) while the factors are
/// finite. O((v1 - v0) · l · F).
void EdgeScoreRow(const Matrix& panels, const std::vector<int>& support,
                  int layers,
                  const std::vector<float>& scale,
                  const std::vector<float>& ddeg,
                  const std::vector<int>& neighbors, int u, int v0, int v1,
                  float* out);

}  // namespace repro::linalg

#endif  // PEEGA_LINALG_INCREMENTAL_H_
