#include "linalg/op_registry.h"

#include <cmath>
#include <set>
#include <tuple>

#include "linalg/incremental.h"
#include "linalg/kernels/kernels.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/random.h"
#include "linalg/sparse.h"

namespace repro::linalg {

const char* DeterminismClassName(DeterminismClass c) {
  switch (c) {
    case DeterminismClass::kLanePerOutput:
      return "lane-per-output";
    case DeterminismClass::kReferenceOnly:
      return "reference-only";
  }
  return "unknown";
}

namespace {

// Probe input sizes straddle the AVX2 (8-float) and NEON (4-float)
// vector widths so every probe exercises full vector bodies AND the
// scalar tails: below one lane group, exactly one, one-plus-a-tail,
// and several groups plus a tail.
constexpr int kProbeDims[] = {1, 3, 7, 8, 9, 17, 33};

// Deterministic dense test matrix; ~20% exact zeros exercise the
// zero-skip branches of the saxpy kernels.
Matrix ProbeMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    float* row = m.row(i);
    for (int j = 0; j < cols; ++j) {
      row[j] = rng->Bernoulli(0.2)
                   ? 0.0f
                   : static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
  }
  return m;
}

void Append(const Matrix& m, std::vector<float>* out) {
  out->insert(out->end(), m.data(), m.data() + m.size());
}

// Sorted random neighbor lists plus the matching GCN scales
// s_i = 1/sqrt(deg_i + 1); the adjacency is symmetric and loop-free,
// matching what graph::GcnNormalize feeds NormalizedSpMMRows.
std::pair<std::vector<std::vector<int>>, std::vector<float>> ProbeGraph(
    int n, Rng* rng) {
  std::vector<std::set<int>> adj(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(0.3)) {
        adj[i].insert(j);
        adj[j].insert(i);
      }
    }
  }
  std::vector<std::vector<int>> neighbors(n);
  std::vector<float> scale(n);
  for (int i = 0; i < n; ++i) {
    neighbors[i].assign(adj[i].begin(), adj[i].end());
    scale[i] = 1.0f / std::sqrt(static_cast<float>(neighbors[i].size()) + 1.0f);
  }
  return {std::move(neighbors), std::move(scale)};
}

void ProbeMatMul(std::vector<float>* out) {
  Rng rng(101);
  for (const int n : kProbeDims) {
    Append(MatMul(ProbeMatrix(5, 9, &rng), ProbeMatrix(9, n, &rng)), out);
  }
  Append(MatMul(ProbeMatrix(9, 65, &rng), ProbeMatrix(65, 12, &rng)), out);
}

void ProbeMatMulTransA(std::vector<float>* out) {
  Rng rng(102);
  for (const int n : kProbeDims) {
    Append(MatMulTransA(ProbeMatrix(9, 5, &rng), ProbeMatrix(9, n, &rng)),
           out);
  }
  Append(MatMulTransA(ProbeMatrix(65, 9, &rng), ProbeMatrix(65, 12, &rng)),
         out);
}

void ProbeMatMulTransB(std::vector<float>* out) {
  Rng rng(103);
  for (const int n : kProbeDims) {
    // n B-rows → n dot products per A-row; the gather path needs >= 8.
    Append(MatMulTransB(ProbeMatrix(5, 9, &rng), ProbeMatrix(n, 9, &rng)),
           out);
  }
  Append(MatMulTransB(ProbeMatrix(4, 65, &rng), ProbeMatrix(19, 65, &rng)),
         out);
}

void ProbeSpMM(std::vector<float>* out) {
  Rng rng(104);
  std::vector<std::tuple<int, int, float>> triplets;
  const int rows = 13, cols = 11;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.Bernoulli(0.35)) {
        triplets.emplace_back(i, j,
                              static_cast<float>(rng.Uniform(-1.0, 1.0)));
      }
    }
  }
  const SparseMatrix s = SparseMatrix::FromTriplets(rows, cols, triplets);
  for (const int n : kProbeDims) {
    Append(SpMM(s, ProbeMatrix(cols, n, &rng)), out);
  }
}

void ProbeSpMV(std::vector<float>* out) {
  Rng rng(105);
  std::vector<std::tuple<int, int, float>> triplets;
  const int rows = 17, cols = 17;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.Bernoulli(0.3)) {
        triplets.emplace_back(i, j,
                              static_cast<float>(rng.Uniform(-1.0, 1.0)));
      }
    }
  }
  const SparseMatrix s = SparseMatrix::FromTriplets(rows, cols, triplets);
  std::vector<float> x(cols);
  for (float& v : x) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const std::vector<float> y = SpMV(s, x);
  out->insert(out->end(), y.begin(), y.end());
}

void ProbeRowSoftmax(std::vector<float>* out) {
  Rng rng(106);
  for (const int n : kProbeDims) {
    Matrix a = ProbeMatrix(6, n, &rng);
    // Plant an exact duplicate of each row max so the vector max scan
    // sees ties (the generic and SIMD scans must resolve identically —
    // max is exact selection, so they do).
    for (int i = 0; i < a.rows() && n > 1; ++i) {
      float* row = a.row(i);
      int best = 0;
      for (int j = 1; j < n; ++j) {
        if (row[j] > row[best]) best = j;
      }
      row[(best + 1) % n] = row[best];
    }
    Append(RowSoftmax(a), out);
  }
}

void ProbeNormalizedSpMMRows(std::vector<float>* out) {
  Rng rng(107);
  const int n = 14;
  auto [neighbors, scale] = ProbeGraph(n, &rng);
  for (const int cols : kProbeDims) {
    const Matrix b = ProbeMatrix(n, cols, &rng);
    Matrix full(n, cols);
    NormalizedSpMM(neighbors, scale, b, &full);
    Append(full, out);
    // Partial refresh of a row subset on top of the full product —
    // the engine's actual usage pattern.
    Matrix partial = full;
    NormalizedSpMMRows(neighbors, scale, {0, 3, 7, n - 1}, b, &partial);
    Append(partial, out);
  }
}

std::vector<int> AllRows(int n) {
  std::vector<int> rows(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) rows[static_cast<size_t>(r)] = r;
  return rows;
}

void ProbeEdgeScoreRows(std::vector<float>* out) {
  Rng rng(108);
  const int features = 9;
  // Layers 1..4 take the AVX2 fixed-depth paths, 5 the scalar fallback.
  // The H_0 = X block (the last) is sparse binary, so the dots against
  // it skip terms through both the group support and u's zeros.
  for (const int layers : {1, 2, 3, 4, 5}) {
    for (const int n : kProbeDims) {
      auto [neighbors, scale] = ProbeGraph(n, &rng);
      Matrix panels = EdgeScorePanels(n, features, 2 * layers);
      for (int b = 0; b + 1 < 2 * layers; ++b) {
        StorePanelRows(ProbeMatrix(n, features, &rng), AllRows(n), b,
                       &panels);
      }
      Matrix x(n, features);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < features; ++j) {
          x(i, j) = rng.Bernoulli(0.1) ? 1.0f : 0.0f;
        }
      }
      StorePanelRows(x, AllRows(n), 2 * layers - 1, &panels);
      std::vector<int> support = EdgeScoreSupport(n, features);
      StoreGroupSupport(x, AllRows(n), &support);
      std::vector<float> ddeg(static_cast<size_t>(n));
      for (float& d : ddeg) d = static_cast<float>(rng.Uniform(-1.0, 1.0));
      std::vector<float> row(static_cast<size_t>(n));
      for (int u = 0; u < n; ++u) {
        // The whole row, then the scan's upper-triangle suffix.
        for (const int v0 : {0, u + 1}) {
          EdgeScoreRow(panels, support, layers, scale, ddeg, neighbors[u], u,
                       v0, n, row.data());
          out->insert(out->end(), row.begin(), row.begin() + (n - v0));
        }
      }
    }
  }
}

std::vector<OpInfo> BuildRegistry() {
  std::vector<OpInfo> ops;
  ops.push_back({"linalg.matmul", "linalg::MatMul",
                 "Dense C = A · B with k-blocked saxpy inner loops.",
                 "O(m · k · n)",
                 "row-parallel; each chunk owns rows [r0, r1) of C",
                 DeterminismClass::kLanePerOutput, true, true, true,
                 &ProbeMatMul});
  ops.push_back({"linalg.matmul_ta", "linalg::MatMulTransA",
                 "Dense C = Aᵀ · B, streaming rows of A and B together.",
                 "O(k · m · n)",
                 "column-parallel; each chunk owns columns [j0, j1) of C",
                 DeterminismClass::kLanePerOutput, true, true, true,
                 &ProbeMatMulTransA});
  ops.push_back({"linalg.matmul_tb", "linalg::MatMulTransB",
                 "Dense C = A · Bᵀ as ascending-k float dot products.",
                 "O(m · k · n)",
                 "row-parallel; each chunk owns rows [r0, r1) of C",
                 DeterminismClass::kLanePerOutput, true, true, false,
                 &ProbeMatMulTransB});
  ops.push_back({"linalg.spmm", "linalg::SpMM",
                 "CSR sparse × dense product, nonzeros in stored order.",
                 "O(nnz · n)",
                 "row-parallel over CSR rows; disjoint output rows",
                 DeterminismClass::kLanePerOutput, true, true, true,
                 &ProbeSpMM});
  ops.push_back({"linalg.spmv", "linalg::SpMV",
                 "CSR sparse × dense vector product.", "O(nnz)",
                 "row-parallel over CSR rows; disjoint output elements",
                 DeterminismClass::kReferenceOnly, true, false, false,
                 &ProbeSpMV});
  ops.push_back({"linalg.row_softmax", "linalg::RowSoftmax",
                 "Numerically stabilized per-row softmax.", "O(m · n)",
                 "row-parallel; each chunk owns rows [r0, r1) of C",
                 DeterminismClass::kLanePerOutput, true, true, false,
                 &ProbeRowSoftmax});
  ops.push_back({"linalg.normalized_spmm_rows",
                 "linalg::NormalizedSpMMRows / linalg::NormalizedSpMM",
                 "Row subset of A_n · B for the GCN-normalized adjacency "
                 "implied by neighbor lists and per-node scales.",
                 "O(Σ_r (deg_r + 1) · n)",
                 "parallel over the requested row subset; disjoint rows",
                 DeterminismClass::kLanePerOutput, true, true, true,
                 &ProbeNormalizedSpMMRows});
  ops.push_back({"linalg.edge_score_rows", "linalg::EdgeScoreRow",
                 "Row of PEEGA edge scores from the low-rank factors of "
                 "the relaxed-adjacency gradient; the dots against the "
                 "sparse features H_0 = X skip zero operands.",
                 "O((v1 - v0) · l · k)",
                 "serial; called per row inside the row-chunked greedy scans",
                 DeterminismClass::kLanePerOutput, true, true, false,
                 &ProbeEdgeScoreRows});
  return ops;
}

}  // namespace

const std::vector<OpInfo>& OpRegistry() {
  static const std::vector<OpInfo>* const registry =
      new std::vector<OpInfo>(BuildRegistry());
  return *registry;
}

const OpInfo* FindOp(std::string_view name) {
  for (const OpInfo& op : OpRegistry()) {
    if (name == op.name) return &op;
  }
  return nullptr;
}

std::string ValidateOpRegistry() {
  const std::vector<OpInfo>& reg = OpRegistry();
  const std::vector<kernels::KernelTableInfo> tables =
      kernels::AllKernelTables();
  if (reg.size() != tables.size()) {
    return "registry has " + std::to_string(reg.size()) +
           " ops but dispatch exposes " + std::to_string(tables.size()) +
           " kernel tables";
  }
  std::set<std::string> seen;
  for (const OpInfo& op : reg) {
    if (!seen.insert(op.name).second) {
      return std::string("duplicate op name: ") + op.name;
    }
    if (!op.generic) {
      return std::string(op.name) + ": every op needs a generic reference";
    }
    if (!op.probe) {
      return std::string(op.name) + ": missing differential-test probe";
    }
    const kernels::KernelTableInfo* table = nullptr;
    for (const kernels::KernelTableInfo& t : tables) {
      if (op.name == t.op) {
        table = &t;
        break;
      }
    }
    if (table == nullptr) {
      return std::string(op.name) + ": no dispatch table with this name";
    }
    if (!table->has_generic) {
      return std::string(op.name) + ": dispatch table lacks a generic slot";
    }
    // A compiled-in variant must be declared; and when this build
    // enables a variant's compile gate, the declaration must match the
    // wiring exactly (the registry lists SOURCE-level availability, so
    // on builds without the gate the table slot is legitimately null).
    if (table->has_avx2 && !op.avx2) {
      return std::string(op.name) + ": avx2 kernel wired but not declared";
    }
    if (table->has_neon && !op.neon) {
      return std::string(op.name) + ": neon kernel wired but not declared";
    }
#if defined(PEEGA_HAVE_AVX2)
    if (op.avx2 != table->has_avx2) {
      return std::string(op.name) + ": avx2 declaration disagrees with table";
    }
#endif
#if defined(PEEGA_HAVE_NEON)
    if (op.neon != table->has_neon) {
      return std::string(op.name) + ": neon declaration disagrees with table";
    }
#endif
  }
  return "";
}

}  // namespace repro::linalg
