#include "linalg/incremental.h"

#include <algorithm>

#include "debug/check.h"
#include "debug/numerics.h"
#include "linalg/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace repro::linalg {

namespace {

// Chunk grain over the row subset. Outputs are disjoint per row, so the
// partition only affects load balance, never the result.
constexpr int64_t kSpmmRowGrain = 16;  // O(deg * cols) work per row

// Scans the freshly written rows for NaN/Inf in debug-numerics builds;
// checking only the touched rows keeps the guard proportional to the
// incremental work instead of the full matrix.
void CheckRowsFinite(const Matrix& m, const std::vector<int>& rows,
                     const char* what) {
  if constexpr (debug::NumericsGuardEnabled()) {
    for (int r : rows) {
      debug::CheckFiniteArray(m.row(r), m.cols(), m.cols(), what, __FILE__,
                              __LINE__);
    }
  }
}

}  // namespace

void NormalizedSpMMRows(const std::vector<std::vector<int>>& neighbors,
                        const std::vector<float>& scale,
                        const std::vector<int>& rows, const Matrix& b,
                        Matrix* out) {
  const int n = static_cast<int>(neighbors.size());
  PEEGA_CHECK_EQ(static_cast<int>(scale.size()), n);
  PEEGA_CHECK_EQ(b.rows(), n);
  PEEGA_CHECK_EQ(out->rows(), n);
  PEEGA_CHECK_EQ(out->cols(), b.cols());
  const obs::TraceSpan span("linalg.norm_spmm_rows");
  static obs::Counter* const calls =
      obs::GetCounter("linalg.incremental.calls");
  static obs::Counter* const flops =
      obs::GetCounter("linalg.incremental.flops");
  calls->Add(1);
  const int cols = b.cols();
  const kernels::NormalizedSpMMRowFn kernel =
      kernels::NormalizedSpMMRowTable().Select();
  parallel::ParallelFor(
      0, static_cast<int64_t>(rows.size()), kSpmmRowGrain,
      [&](int64_t i0, int64_t i1) {
        uint64_t work = 0;
        for (int64_t i = i0; i < i1; ++i) {
          const int r = rows[static_cast<size_t>(i)];
          const std::vector<int>& nbrs = neighbors[r];
          kernel(nbrs.data(), static_cast<int>(nbrs.size()), r, scale.data(),
                 b.data(), cols, out->row(r));
          work += nbrs.size() + 1;
        }
        flops->Add(2 * work * static_cast<uint64_t>(cols));
      });
  CheckRowsFinite(*out, rows, "NormalizedSpMMRows");
}

void NormalizedSpMM(const std::vector<std::vector<int>>& neighbors,
                    const std::vector<float>& scale, const Matrix& b,
                    Matrix* out) {
  std::vector<int> all(neighbors.size());
  for (size_t r = 0; r < all.size(); ++r) all[r] = static_cast<int>(r);
  NormalizedSpMMRows(neighbors, scale, all, b, out);
}

Matrix EdgeScorePanels(int n, int features, int blocks) {
  const int groups = (n + kernels::kPanelGroup - 1) / kernels::kPanelGroup;
  return Matrix(groups, blocks * features * kernels::kPanelGroup);
}

void StorePanelRows(const Matrix& factor, const std::vector<int>& rows,
                    int block, Matrix* panels) {
  const int features = factor.cols();
  const int blocks = panels->cols() / (features * kernels::kPanelGroup);
  float* out = panels->data();
  for (const int r : rows) {
    const float* src = factor.row(r);
    for (int j = 0; j < features; ++j) {
      out[kernels::PanelOffset(blocks, features, block, j, r)] = src[j];
    }
  }
}

std::vector<int> EdgeScoreSupport(int n, int features) {
  const int groups = (n + kernels::kPanelGroup - 1) / kernels::kPanelGroup;
  return std::vector<int>(static_cast<size_t>(groups) * (features + 1), 0);
}

void StoreGroupSupport(const Matrix& x, const std::vector<int>& rows,
                       std::vector<int>* support) {
  const int n = x.rows();
  const int features = x.cols();
  int last_group = -1;
  for (const int r : rows) {  // rows ascend, so a group's rows are adjacent
    const int g = r / kernels::kPanelGroup;
    if (g == last_group) continue;
    last_group = g;
    int* slot = support->data() + static_cast<size_t>(g) * (features + 1);
    const int end = std::min(n, (g + 1) * kernels::kPanelGroup);
    int count = 0;
    for (int j = 0; j < features; ++j) {
      for (int v = g * kernels::kPanelGroup; v < end; ++v) {
        if (x(v, j) != 0.0f) {
          slot[++count] = j;
          break;
        }
      }
    }
    slot[0] = count;
  }
}

void EdgeScoreRow(const Matrix& panels, const std::vector<int>& support,
                  int layers,
                  const std::vector<float>& scale,
                  const std::vector<float>& ddeg,
                  const std::vector<int>& neighbors, int u, int v0, int v1,
                  float* out) {
  const int features = panels.cols() / (2 * layers * kernels::kPanelGroup);
  PEEGA_DCHECK_LE(v1, panels.rows() * kernels::kPanelGroup);
  kernels::EdgeScoreRowTable().Select()(panels.data(), support.data(), layers,
                                        features, scale.data(), ddeg.data(), u,
                                        v0, v1, out);
  // Direction: the tape's (1 - 2A[u][v]) is exactly -1.0f on an existing
  // edge, and -1.0f * x is the float negation of x.
  for (auto it = std::lower_bound(neighbors.begin(), neighbors.end(), v0);
       it != neighbors.end() && *it < v1; ++it) {
    out[*it - v0] = -out[*it - v0];
  }
}

}  // namespace repro::linalg
