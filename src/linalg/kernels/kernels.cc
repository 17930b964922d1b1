// Per-op dispatch tables. The variant slots are wired at compile time
// from the same PEEGA_HAVE_* definitions that gate the variant TUs, so
// a table can never reference a symbol the link does not provide; at
// runtime KernelTable::Select() narrows further to what the CPU
// supports. AllKernelTables() exposes the wiring to the op registry's
// self-check and to gen_op_docs.

#include "linalg/kernels/kernels.h"

#include "linalg/kernels/variants.h"

namespace repro::linalg::kernels {

#if defined(PEEGA_HAVE_AVX2)
#define PEEGA_AVX2_FN(fn) (&avx2::fn)
#else
#define PEEGA_AVX2_FN(fn) nullptr
#endif

#if defined(PEEGA_HAVE_NEON)
#define PEEGA_NEON_FN(fn) (&neon::fn)
#else
#define PEEGA_NEON_FN(fn) nullptr
#endif

const KernelTable<MatMulRowsFn>& MatMulTable() {
  static const KernelTable<MatMulRowsFn> table = {
      "linalg.matmul", &generic::MatMulRows, PEEGA_AVX2_FN(MatMulRows),
      PEEGA_NEON_FN(MatMulRows)};
  return table;
}

const KernelTable<MatMulTransAColsFn>& MatMulTransATable() {
  static const KernelTable<MatMulTransAColsFn> table = {
      "linalg.matmul_ta", &generic::MatMulTransACols,
      PEEGA_AVX2_FN(MatMulTransACols), PEEGA_NEON_FN(MatMulTransACols)};
  return table;
}

const KernelTable<MatMulTransBRowsFn>& MatMulTransBTable() {
  static const KernelTable<MatMulTransBRowsFn> table = {
      "linalg.matmul_tb", &generic::MatMulTransBRows,
      PEEGA_AVX2_FN(MatMulTransBRows), nullptr};
  return table;
}

const KernelTable<SpMMRowsFn>& SpMMTable() {
  static const KernelTable<SpMMRowsFn> table = {
      "linalg.spmm", &generic::SpMMRows, PEEGA_AVX2_FN(SpMMRows),
      PEEGA_NEON_FN(SpMMRows)};
  return table;
}

const KernelTable<SpMVRowsFn>& SpMVTable() {
  // Reference-only: each output is ONE float accumulator scanned along
  // the row's nonzeros, so any lane-parallel split would reassociate
  // the sum and break the bitwise class (see docs/OPS.md).
  static const KernelTable<SpMVRowsFn> table = {
      "linalg.spmv", &generic::SpMVRows, nullptr, nullptr};
  return table;
}

const KernelTable<RowSoftmaxRowsFn>& RowSoftmaxTable() {
  static const KernelTable<RowSoftmaxRowsFn> table = {
      "linalg.row_softmax", &generic::RowSoftmaxRows,
      PEEGA_AVX2_FN(RowSoftmaxRows), nullptr};
  return table;
}

const KernelTable<NormalizedSpMMRowFn>& NormalizedSpMMRowTable() {
  static const KernelTable<NormalizedSpMMRowFn> table = {
      "linalg.normalized_spmm_rows", &generic::NormalizedSpMMRow,
      PEEGA_AVX2_FN(NormalizedSpMMRow), PEEGA_NEON_FN(NormalizedSpMMRow)};
  return table;
}

const KernelTable<EdgeScoreRowFn>& EdgeScoreRowTable() {
  static const KernelTable<EdgeScoreRowFn> table = {
      "linalg.edge_score_rows", &generic::EdgeScoreRow,
      PEEGA_AVX2_FN(EdgeScoreRow), nullptr};
  return table;
}

#undef PEEGA_AVX2_FN
#undef PEEGA_NEON_FN

namespace {

template <typename Fn>
KernelTableInfo InfoOf(const KernelTable<Fn>& table) {
  KernelTableInfo info;
  info.op = table.op;
  info.has_generic = table.generic != nullptr;
  info.has_avx2 = table.avx2 != nullptr;
  info.has_neon = table.neon != nullptr;
  return info;
}

}  // namespace

std::vector<KernelTableInfo> AllKernelTables() {
  return {
      InfoOf(MatMulTable()),        InfoOf(MatMulTransATable()),
      InfoOf(MatMulTransBTable()),  InfoOf(SpMMTable()),
      InfoOf(SpMVTable()),          InfoOf(RowSoftmaxTable()),
      InfoOf(NormalizedSpMMRowTable()), InfoOf(EdgeScoreRowTable()),
  };
}

}  // namespace repro::linalg::kernels
