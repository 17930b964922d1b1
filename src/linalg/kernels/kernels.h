#ifndef PEEGA_LINALG_KERNELS_KERNELS_H_
#define PEEGA_LINALG_KERNELS_KERNELS_H_

#include <cstdint>
#include <vector>

#include "linalg/dispatch.h"

namespace repro::linalg::kernels {

/// \file
/// Chunk- and row-level kernel signatures plus the per-op variant
/// tables behind `linalg/ops.cc` and `linalg/incremental.cc`.
///
/// The public kernels keep their orchestration (shape checks, tracing,
/// FLOP counters, `parallel::ParallelFor` chunking) and resolve ONE
/// function pointer per call from the op's `KernelTable`; the pointed-to
/// functions below do the arithmetic for one chunk (dense ops) or one
/// row (the row-subset repair ops). Signatures are raw pointers + sizes
/// on purpose: the AVX2/NEON translation units are compiled with
/// instruction-set flags the rest of the tree must not assume, so they
/// must not instantiate inline class members that could be ODR-merged
/// into baseline code.
///
/// Variant contract (DESIGN.md, "Kernel dispatch & determinism
/// classes"): every non-generic variant reproduces the generic float
/// accumulation order per output element EXACTLY — vector lanes map to
/// distinct output elements, never to partial sums of one element, and
/// multiplies/adds round separately (no FMA contraction; the kernel TUs
/// compile with `-ffp-contract=off`). The op registry
/// (`linalg/op_registry.h`) auto-generates bitwise differential tests
/// for every compiled variant from this promise.

// ---------------------------------------------------------------------------
// Chunk kernels (dense ops; all matrices row-major, stride = cols)
// ---------------------------------------------------------------------------

/// Rows [r0, r1) of C(m×n) = A(m×k) · B(k×n), cache-blocked over k with
/// block 64; per-element accumulation ascends kk within ascending
/// k-blocks, zero `a` entries skipped.
using MatMulRowsFn = void (*)(const float* a, const float* b, float* c,
                              int64_t r0, int64_t r1, int k, int n);

/// Column slice [j0, j1) of C(m×n) = A(k_rows×m)ᵀ · B(k_rows×n);
/// kk-outer streaming order, per-element accumulation ascends kk.
using MatMulTransAColsFn = void (*)(const float* a, const float* b, float* c,
                                    int64_t j0, int64_t j1, int k_rows, int m,
                                    int n);

/// Rows [r0, r1) of C(m×n) = A(m×k) · B(n×k)ᵀ; each element is an
/// ascending-k dot product.
using MatMulTransBRowsFn = void (*)(const float* a, const float* b, float* c,
                                    int64_t r0, int64_t r1, int k, int n);

/// Rows [r0, r1) of C = S · B for CSR S; each row accumulates its
/// nonzeros in stored (ascending-column) order.
using SpMMRowsFn = void (*)(const int64_t* row_ptr, const int* col_idx,
                            const float* values, const float* b, float* c,
                            int64_t r0, int64_t r1, int n);

/// Rows [r0, r1) of y = S · x for CSR S, stored-order accumulation.
using SpMVRowsFn = void (*)(const int64_t* row_ptr, const int* col_idx,
                            const float* values, const float* x, float* y,
                            int64_t r0, int64_t r1);

/// Rows [r0, r1) of the max-stabilized row softmax; the exp/denominator
/// scan is scalar in every variant (libm exp in ascending-j order).
using RowSoftmaxRowsFn = void (*)(const float* a, float* c, int64_t r0,
                                  int64_t r1, int n);

// ---------------------------------------------------------------------------
// Row kernels (row-subset repair ops of the incremental engine)
// ---------------------------------------------------------------------------

/// Row `r` of A_n · B for the GCN-normalized adjacency implied by
/// `neighbors`/`scale` (entry value scale[r]·scale[k]); the self-loop is
/// merged in sorted position exactly as in `linalg::SpMM` on
/// `graph::GcnNormalize`'s CSR. `b` is (n×cols); writes `out_row`.
using NormalizedSpMMRowFn = void (*)(const int* neighbors, int degree, int r,
                                     const float* scale, const float* b,
                                     int cols, float* out_row);

/// Nodes per group of the packed factor panels `EdgeScoreRowFn` reads:
/// one AVX2 vector of consecutive nodes.
inline constexpr int kPanelGroup = 8;

/// Float offset of factor row v, feature j, in panel block b of the
/// packed layout: node groups of kPanelGroup are stored one after the
/// other, each holding its blocks' F × kPanelGroup tiles, so the values
/// of eight consecutive nodes for one (b, j) are contiguous.
inline int64_t PanelOffset(int blocks, int features, int b, int j,
                           int64_t v) {
  return ((v / kPanelGroup) * blocks * features + b * features + j) *
             kPanelGroup +
         v % kPanelGroup;
}

/// Row `u` of PEEGA's edge-score matrix over columns [v0, v1), computed
/// on the fly from the low-rank factors of the relaxed-adjacency
/// gradient G_N = Σ_k W_k H_{l-1-k}ᵀ (l = `layers`, k ascending).
/// `panels` holds 2·l blocks in the PanelOffset layout: block k is W_k,
/// block l + k is H_{l-1-k}. `support` lists, for node group g at
/// offset g·(F + 1), how many features have a nonzero H_0 = X entry in
/// some node of the group, then those features ascending. Writes
///   out[v - v0] = P(u, v) + P(v, u),
///   P(a, b) = ((G_N(a, b) · scale[b]) · scale[a]) + ddeg[a],
///   G_N(a, b) = U_0 + U_1 + ... (left to right),
///   U_k = Σ_j W_k[a][j] · H_{l-1-k}[b][j]  (ascending j, from 0.0f),
/// the float expression of the tape's MatMulTransB terms and degree
/// chain, except that the dots against H_0 = X (k = l - 1) leave out
/// terms with a zero H_0 operand: U_{l-1}(u, v) adds only the features
/// in the support of v's group, U_{l-1}(v, u) only those with
/// H_0[u][j] != 0. Each left-out term is a signed zero, which leaves a
/// dot that starts at +0.0f unchanged. Edge direction (the sign) is the
/// caller's.
using EdgeScoreRowFn = void (*)(const float* panels, const int* support,
                                int layers, int features, const float* scale,
                                const float* ddeg, int u, int64_t v0,
                                int64_t v1, float* out);

// ---------------------------------------------------------------------------
// Per-op tables
// ---------------------------------------------------------------------------

const KernelTable<MatMulRowsFn>& MatMulTable();
const KernelTable<MatMulTransAColsFn>& MatMulTransATable();
const KernelTable<MatMulTransBRowsFn>& MatMulTransBTable();
const KernelTable<SpMMRowsFn>& SpMMTable();
const KernelTable<SpMVRowsFn>& SpMVTable();
const KernelTable<RowSoftmaxRowsFn>& RowSoftmaxTable();
const KernelTable<NormalizedSpMMRowFn>& NormalizedSpMMRowTable();
const KernelTable<EdgeScoreRowFn>& EdgeScoreRowTable();

/// The AVX2 MatMulTransB kernel addresses B rows through 32-bit gather
/// offsets (lane l reads b[row_l·k + kk]); callers fall back to the
/// generic kernel when `max_row·k + k` could exceed INT32_MAX.
inline bool GatherOffsetsFit(int64_t max_row, int64_t k) {
  return max_row * k + k <= int64_t{INT32_MAX};
}

/// Introspection row for the registry self-check and gen_op_docs: which
/// variants of each dispatched op this binary actually compiled.
struct KernelTableInfo {
  const char* op;
  bool has_generic = false;
  bool has_avx2 = false;
  bool has_neon = false;
};

/// One entry per kernel table above, in table-declaration order. The op
/// registry cross-checks this against its own entries in both
/// directions (every dispatched op documented, every documented variant
/// compiled where the toolchain allows).
std::vector<KernelTableInfo> AllKernelTables();

}  // namespace repro::linalg::kernels

#endif  // PEEGA_LINALG_KERNELS_KERNELS_H_
