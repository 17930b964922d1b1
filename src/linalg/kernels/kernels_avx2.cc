// AVX2 kernel variants. Compiled with -mavx2 -ffp-contract=off in its
// own translation unit (never on the baseline tree) and reached only
// through the dispatch tables after a CPUID check.
//
// Bitwise-equality discipline (DESIGN.md, "Kernel dispatch &
// determinism classes"): every vector lane owns ONE output element and
// replays the generic kernel's accumulation sequence for that element —
// saxpy kernels vectorize across the contiguous j (output-column) loop,
// dot kernels keep the ascending-k scan per output and spread EIGHT
// DIFFERENT outputs across lanes, via strided gathers (MatMulTransB) or
// contiguous loads from transposed panels (EdgeScoreRow). Multiplies and
// adds round separately (_mm256_mul_ps + _mm256_add_ps, never
// _mm256_fmadd_ps): the baseline x86-64 scalar reference has no FMA, so
// a fused variant would differ in the last bit and flip greedy argmax
// decisions. Scalar tails reuse the exact generic expressions.

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "linalg/kernels/kernels.h"  // kPanelGroup only
#include "linalg/kernels/variants.h"

namespace repro::linalg::kernels::avx2 {

namespace {

// crow[j] += av * brow[j] for j in [0, n) — the shared saxpy inner loop
// of MatMulRows / SpMMRows / NormalizedSpMMRow. Lane l handles element
// j + l; per element the operation sequence equals the scalar loop.
inline void AxpyRow(float av, const float* brow, float* crow, int n) {
  const __m256 vav = _mm256_set1_ps(av);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vb = _mm256_loadu_ps(brow + j);
    const __m256 vc = _mm256_loadu_ps(crow + j);
    _mm256_storeu_ps(crow + j, _mm256_add_ps(vc, _mm256_mul_ps(vav, vb)));
  }
  for (; j < n; ++j) crow[j] += av * brow[j];
}

// Eight ascending-k dot products at once: lane l accumulates
// dot(a_row, b + (base_row + l)·k) through a stride-k gather, exactly
// the generic per-output order. Caller guarantees (base-relative)
// gather offsets fit int32 (kernels.h GatherOffsetsFit).
inline __m256 DotEight(const float* a_row, const float* b_tile, int k) {
  const __m256i vidx =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(k));
  __m256 acc = _mm256_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const __m256 va = _mm256_set1_ps(a_row[kk]);
    const __m256 vb = _mm256_i32gather_ps(b_tile + kk, vidx, 4);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
  }
  return acc;
}

inline float DotScalar(const float* a_row, const float* brow, int k) {
  float dot = 0.0f;
  for (int kk = 0; kk < k; ++kk) dot += a_row[kk] * brow[kk];
  return dot;
}

}  // namespace

void MatMulRows(const float* a, const float* b, float* c, int64_t r0,
                int64_t r1, int k, int n) {
  constexpr int kBlock = 64;
  for (int k0 = 0; k0 < k; k0 += kBlock) {
    const int k1 = std::min(k0 + kBlock, k);
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* arow = a + static_cast<int64_t>(i) * k;
      float* crow = c + static_cast<int64_t>(i) * n;
      for (int kk = k0; kk < k1; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        AxpyRow(av, b + static_cast<int64_t>(kk) * n, crow, n);
      }
    }
  }
}

void MatMulTransACols(const float* a, const float* b, float* c, int64_t j0,
                      int64_t j1, int k_rows, int m, int n) {
  const int jb = static_cast<int>(j0);
  const int je = static_cast<int>(j1);
  for (int kk = 0; kk < k_rows; ++kk) {
    const float* arow = a + static_cast<int64_t>(kk) * m;
    const float* brow = b + static_cast<int64_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<int64_t>(i) * n;
      const __m256 vav = _mm256_set1_ps(av);
      int j = jb;
      for (; j + 8 <= je; j += 8) {
        const __m256 vb = _mm256_loadu_ps(brow + j);
        const __m256 vc = _mm256_loadu_ps(crow + j);
        _mm256_storeu_ps(crow + j, _mm256_add_ps(vc, _mm256_mul_ps(vav, vb)));
      }
      for (; j < je; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTransBRows(const float* a, const float* b, float* c, int64_t r0,
                      int64_t r1, int k, int n) {
  for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
    const float* arow = a + static_cast<int64_t>(i) * k;
    float* crow = c + static_cast<int64_t>(i) * n;
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_ps(crow + j,
                       DotEight(arow, b + static_cast<int64_t>(j) * k, k));
    }
    for (; j < n; ++j) {
      crow[j] = DotScalar(arow, b + static_cast<int64_t>(j) * k, k);
    }
  }
}

void SpMMRows(const int64_t* row_ptr, const int* col_idx, const float* values,
              const float* b, float* c, int64_t r0, int64_t r1, int n) {
  for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
    float* crow = c + static_cast<int64_t>(i) * n;
    for (int64_t kk = row_ptr[i]; kk < row_ptr[i + 1]; ++kk) {
      AxpyRow(values[kk], b + static_cast<int64_t>(col_idx[kk]) * n, crow, n);
    }
  }
}

void RowSoftmaxRows(const float* a, float* c, int64_t r0, int64_t r1, int n) {
  for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
    const float* arow = a + static_cast<int64_t>(i) * n;
    float* crow = c + static_cast<int64_t>(i) * n;
    // Lane-parallel max then horizontal reduce: float max is exact
    // selection (associative and commutative on the non-NaN inputs the
    // numerics guard admits), so the reassociation is value-identical
    // to the scalar scan; a ±0 tie feeds exp(±0) = 1.0f either way.
    float row_max;
    if (n >= 8) {
      __m256 vmax = _mm256_loadu_ps(arow);
      int j = 8;
      for (; j + 8 <= n; j += 8) {
        vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(arow + j));
      }
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, vmax);
      row_max = lanes[0];
      for (int l = 1; l < 8; ++l) row_max = std::max(row_max, lanes[l]);
      for (; j < n; ++j) row_max = std::max(row_max, arow[j]);
    } else {
      row_max = arow[0];
      for (int j = 1; j < n; ++j) row_max = std::max(row_max, arow[j]);
    }
    // The exp + denominator scan stays scalar in every variant: libm
    // exp calls in ascending-j order ARE the reference accumulation.
    float denom = 0.0f;
    for (int j = 0; j < n; ++j) {
      crow[j] = std::exp(arow[j] - row_max);
      denom += crow[j];
    }
    const float inv = 1.0f / denom;
    const __m256 vinv = _mm256_set1_ps(inv);
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_ps(crow + j,
                       _mm256_mul_ps(_mm256_loadu_ps(crow + j), vinv));
    }
    for (; j < n; ++j) crow[j] *= inv;
  }
}

void NormalizedSpMMRow(const int* neighbors, int degree, int r,
                       const float* scale, const float* b, int cols,
                       float* out_row) {
  {
    const __m256 vzero = _mm256_setzero_ps();
    int j = 0;
    for (; j + 8 <= cols; j += 8) _mm256_storeu_ps(out_row + j, vzero);
    for (; j < cols; ++j) out_row[j] = 0.0f;
  }
  const float sr = scale[r];
  const auto apply = [&](int k) {
    AxpyRow(sr * scale[k], b + static_cast<int64_t>(k) * cols, out_row, cols);
  };
  bool self_done = false;
  for (int idx = 0; idx < degree; ++idx) {
    const int k = neighbors[idx];
    if (!self_done && r < k) {
      apply(r);
      self_done = true;
    }
    apply(k);
  }
  if (!self_done) apply(r);
}

namespace {

// EdgeScoreRow for a compile-time layer count: lane l of node group g
// owns output 8g + l and keeps its dots in registers over ascending-j
// loops. Each dot is its own accumulator, so replaying the generic
// per-dot order needs no gather: the packed panels put the eight nodes
// of a group side by side, and one group's 2·L·F vectors are
// contiguous. The two dots against the sparse H_0 = X block leave out
// the generic kernel's terms: U_{L-1}(v, u) walks u's nonzero features
// in a first pass over a chunk of groups, U_{L-1}(u, v) the group's
// support, and the dense loop does the other 2·L - 2 dots. Groups that
// [v0, v1) cuts are computed whole (the panels are padded to whole
// groups) and only their lanes inside the range are stored.
template <int L>
void EdgeScoreRowFixed(const float* panels, const int* support, int features,
                       const float* scale, const float* ddeg, int u,
                       int64_t v0, int64_t v1, float* out) {
  constexpr int kBlocks = 2 * L;
  constexpr int64_t kChunkGroups = 16;
  const int64_t group_floats =
      static_cast<int64_t>(kBlocks) * features * kPanelGroup;
  const auto w_at = [features](int k, int j) {
    return (static_cast<int64_t>(k) * features + j) * kPanelGroup;
  };
  const auto h_at = [features](int k, int j) {
    return (static_cast<int64_t>(L + k) * features + j) * kPanelGroup;
  };
  // u's slot in its group (PanelOffset spelled out: inline helpers of
  // kernels.h must not be instantiated in this ISA-flagged TU).
  const float* wu = panels + (u / kPanelGroup) * group_floats + u % kPanelGroup;
  const __m256 vsu = _mm256_set1_ps(scale[u]);
  const __m256 vdu = _mm256_set1_ps(ddeg[u]);
  const int64_t g_end = (v1 + kPanelGroup - 1) / kPanelGroup;
  for (int64_t g0 = v0 / kPanelGroup; g0 < g_end; g0 += kChunkGroups) {
    const int64_t g1 = std::min(g0 + kChunkGroups, g_end);
    __m256 sparse_vu[kChunkGroups];
    for (int64_t g = g0; g < g1; ++g) sparse_vu[g - g0] = _mm256_setzero_ps();
    for (int j = 0; j < features; ++j) {
      const float hu = wu[h_at(L - 1, j)];
      if (hu == 0.0f) continue;
      const __m256 vhu = _mm256_set1_ps(hu);
      for (int64_t g = g0; g < g1; ++g) {
        const __m256 wv =
            _mm256_loadu_ps(panels + g * group_floats + w_at(L - 1, j));
        sparse_vu[g - g0] =
            _mm256_add_ps(sparse_vu[g - g0], _mm256_mul_ps(wv, vhu));
      }
    }
    for (int64_t g = g0; g < g1; ++g) {
      const float* group = panels + g * group_floats;
      __m256 uv[L];
      __m256 vu[L];
#pragma GCC unroll 4
      for (int k = 0; k < L; ++k) {
        uv[k] = _mm256_setzero_ps();
        vu[k] = _mm256_setzero_ps();
      }
      if (L > 1) {
        for (int j = 0; j < features; ++j) {
#pragma GCC unroll 4
          for (int k = 0; k < L - 1; ++k) {
            const __m256 hv = _mm256_loadu_ps(group + h_at(k, j));
            uv[k] = _mm256_add_ps(
                uv[k], _mm256_mul_ps(_mm256_set1_ps(wu[w_at(k, j)]), hv));
            const __m256 wv = _mm256_loadu_ps(group + w_at(k, j));
            vu[k] = _mm256_add_ps(
                vu[k], _mm256_mul_ps(wv, _mm256_set1_ps(wu[h_at(k, j)])));
          }
        }
      }
      const int* g_support = support + g * (features + 1);
      for (int i = 1; i <= g_support[0]; ++i) {
        const int j = g_support[i];
        const __m256 hv = _mm256_loadu_ps(group + h_at(L - 1, j));
        uv[L - 1] = _mm256_add_ps(
            uv[L - 1], _mm256_mul_ps(_mm256_set1_ps(wu[w_at(L - 1, j)]), hv));
      }
      vu[L - 1] = sparse_vu[g - g0];
      __m256 gn_uv = uv[0];
      __m256 gn_vu = vu[0];
#pragma GCC unroll 4
      for (int k = 1; k < L; ++k) {
        gn_uv = _mm256_add_ps(gn_uv, uv[k]);
        gn_vu = _mm256_add_ps(gn_vu, vu[k]);
      }
      const auto score = [&](__m256 vsv, __m256 vdv) {
        const __m256 p_uv =
            _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(gn_uv, vsv), vsu), vdu);
        const __m256 p_vu =
            _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(gn_vu, vsu), vsv), vdv);
        return _mm256_add_ps(p_uv, p_vu);
      };
      const int64_t v = g * kPanelGroup;
      if (v >= v0 && v + kPanelGroup <= v1) {
        _mm256_storeu_ps(out + (v - v0), score(_mm256_loadu_ps(scale + v),
                                               _mm256_loadu_ps(ddeg + v)));
        continue;
      }
      // A cut group: scale and ddeg end at the last node, so only the
      // lanes inside [v0, v1) are loaded and stored.
      const int64_t lo = std::max(v, v0);
      const int64_t hi = std::min(v + kPanelGroup, v1);
      alignas(32) float sv[kPanelGroup] = {};
      alignas(32) float dv[kPanelGroup] = {};
      alignas(32) float lanes[kPanelGroup];
      for (int64_t x = lo; x < hi; ++x) {
        sv[x - v] = scale[x];
        dv[x - v] = ddeg[x];
      }
      _mm256_store_ps(lanes, score(_mm256_load_ps(sv), _mm256_load_ps(dv)));
      for (int64_t x = lo; x < hi; ++x) out[x - v0] = lanes[x - v];
    }
  }
}

}  // namespace

void EdgeScoreRow(const float* panels, const int* support, int layers,
                  int features, const float* scale, const float* ddeg, int u,
                  int64_t v0, int64_t v1, float* out) {
  switch (layers) {
    case 1:
      return EdgeScoreRowFixed<1>(panels, support, features, scale, ddeg, u,
                                  v0, v1, out);
    case 2:
      return EdgeScoreRowFixed<2>(panels, support, features, scale, ddeg, u,
                                  v0, v1, out);
    case 3:
      return EdgeScoreRowFixed<3>(panels, support, features, scale, ddeg, u,
                                  v0, v1, out);
    case 4:
      return EdgeScoreRowFixed<4>(panels, support, features, scale, ddeg, u,
                                  v0, v1, out);
    default:  // deeper surrogates than the paper's: scalar reference
      return generic::EdgeScoreRow(panels, support, layers, features, scale,
                                   ddeg, u, v0, v1, out);
  }
}

}  // namespace repro::linalg::kernels::avx2
