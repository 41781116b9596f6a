#include "tensor/gemm.h"

#include <algorithm>

#include "runtime/parallel.h"
#include "runtime/workspace.h"

namespace chiron::tensor::detail {

namespace {

// Approximate element count of pack/compute work worth one task dispatch;
// smaller sections run inline on the caller (same values either way).
constexpr std::int64_t kDispatchWork = 16384;

// Packs B[pc:pc+kc, jc+jp*NR : ...] into one NR-interleaved panel:
// dst[kk*NR + j] = B(pc+kk, jc+jp*NR+j), zero-padded past the last column.
void pack_b_panel(const MatView& b, std::int64_t pc, std::int64_t kc,
                  std::int64_t col0, std::int64_t ncols, float* dst) {
  if (b.cs == 1) {  // row-major B: the panel row is a contiguous copy
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = b.data + (pc + kk) * b.rs + col0;
      float* out = dst + kk * kNR;
      std::int64_t j = 0;
      for (; j < ncols; ++j) out[j] = src[j];
      for (; j < kNR; ++j) out[j] = 0.f;
    }
    return;
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* src = b.data + (pc + kk) * b.rs + col0 * b.cs;
    float* out = dst + kk * kNR;
    std::int64_t j = 0;
    for (; j < ncols; ++j) out[j] = src[j * b.cs];
    for (; j < kNR; ++j) out[j] = 0.f;
  }
}

// Packs A[row0:row0+nrows, pc:pc+kc] into one MR-interleaved panel:
// dst[kk*MR + i] = A(row0+i, pc+kk), zero-padded past the last row.
void pack_a_panel(const MatView& a, std::int64_t pc, std::int64_t kc,
                  std::int64_t row0, std::int64_t nrows, float* dst) {
  if (a.rs == 1) {  // transposed-A view: the panel column is contiguous
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = a.data + row0 + (pc + kk) * a.cs;
      float* out = dst + kk * kMR;
      std::int64_t i = 0;
      for (; i < nrows; ++i) out[i] = src[i];
      for (; i < kMR; ++i) out[i] = 0.f;
    }
    return;
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* src = a.data + row0 * a.rs + (pc + kk) * a.cs;
    float* out = dst + kk * kMR;
    std::int64_t i = 0;
    for (; i < nrows; ++i) out[i] = src[i * a.rs];
    for (; i < kMR; ++i) out[i] = 0.f;
  }
}

// The register micro-kernel: acc(MR×NR) += Ap(MR×kc) · Bp(kc×NR) over
// packed unit-stride panels. The j loop is the vector lane; each acc
// element is a serial sum over kk, so lane width never changes values.
inline void micro_kernel(std::int64_t kc, const float* ap, const float* bp,
                         float* acc) {
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMR;
    const float* brow = bp + kk * kNR;
    for (int i = 0; i < kMR; ++i) {
      const float ai = arow[i];
      float* crow = acc + i * kNR;
      for (int j = 0; j < kNR; ++j) crow[j] += ai * brow[j];
    }
  }
}

// Direct path, one block of nb ≤ NB columns of C row i over one K panel:
// acc[j] = Σ A(i,kk)·B(kk,j) in ascending kk from 0.f, then C += acc — the
// micro-kernel's arithmetic for a single row, minus the packing and the
// padded lanes. Inlined at a full-block call site (nb == NB, a constant
// trip count that keeps acc in registers) and a ragged-tail one.
template <bool kUnitB, std::int64_t NB>
[[gnu::always_inline]] inline void direct_block(const MatView& a,
                                                const MatView& b,
                                                const float* ap,
                                                const float* bp,
                                                std::int64_t kc,
                                                std::int64_t nb,
                                                float* crow) {
  float acc[NB] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float ai = ap[kk * a.cs];
    const float* brow = bp + kk * b.rs;
    if constexpr (kUnitB) {
      for (std::int64_t j = 0; j < nb; ++j) acc[j] += ai * brow[j];
    } else {
      for (std::int64_t j = 0; j < nb; ++j) acc[j] += ai * brow[j * b.cs];
    }
  }
  for (std::int64_t j = 0; j < nb; ++j) crow[j] += acc[j];
}

// One C row over one K panel, in blocks of NB columns. Row-major B runs
// NB = 32 contiguous lanes per kk step; a strided B (the Bᵀ view) cannot
// vectorize, so it keeps NB = 8 scalar sums in registers instead.
template <bool kUnitB>
void direct_row(const MatView& a, const MatView& b, std::int64_t i,
                std::int64_t pc, std::int64_t kc, float* crow) {
  constexpr std::int64_t NB = kUnitB ? 32 : 8;
  const float* ap = a.data + i * a.rs + pc * a.cs;
  const float* bp = b.data + pc * b.rs;
  const std::int64_t n = b.cols;
  std::int64_t j0 = 0;
  for (; j0 + NB <= n; j0 += NB)
    direct_block<kUnitB, NB>(a, b, ap, bp + j0 * b.cs, kc, NB, crow + j0);
  if (j0 < n)
    direct_block<kUnitB, NB>(a, b, ap, bp + j0 * b.cs, kc, n - j0,
                             crow + j0);
}

}  // namespace

void gemm_acc(const MatView& a, const MatView& b, float* c,
              const std::int64_t ldc) {
  if (use_direct(a.rows)) {
    gemm_direct(a, b, c, ldc);
  } else {
    gemm_packed(a, b, c, ldc);
  }
}

void gemm_direct(const MatView& a, const MatView& b, float* c,
                 const std::int64_t ldc) {
  const std::int64_t m = a.rows, k = a.cols, n = b.cols;
  if (m == 0 || n == 0 || k == 0) return;
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    for (std::int64_t i = 0; i < m; ++i) {
      if (b.cs == 1) {
        direct_row<true>(a, b, i, pc, kc, c + i * ldc);
      } else {
        direct_row<false>(a, b, i, pc, kc, c + i * ldc);
      }
    }
  }
}

void gemm_packed(const MatView& a, const MatView& b, float* c,
                 const std::int64_t ldc) {
  const std::int64_t m = a.rows, k = a.cols, n = b.cols;
  if (m == 0 || n == 0 || k == 0) return;

  auto& pack_ws = runtime::Workspace::tls();
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    const std::int64_t npanels = (nc + kNR - 1) / kNR;
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);

      // Shared packed B strip for this (jc, pc): read-only once built, so
      // every M task can stream it. Panel writes are disjoint.
      auto bbuf = pack_ws.acquire(
          static_cast<std::size_t>(npanels * kc * kNR));
      float* bp = bbuf.data();
      runtime::parallel_for(
          0, npanels,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t jp = lo; jp < hi; ++jp) {
              pack_b_panel(b, pc, kc, jc + jp * kNR,
                           std::min<std::int64_t>(kNR, nc - jp * kNR),
                           bp + jp * kc * kNR);
            }
          },
          std::max<std::int64_t>(1, kDispatchWork / (kc * kNR)));

      // Parallel over MC row blocks of C: the grid depends only on m, so
      // chunking along it never changes which arithmetic produces a given
      // C element — only which thread runs it.
      const std::int64_t mblocks = (m + kMC - 1) / kMC;
      runtime::parallel_for(
          0, mblocks,
          [&](std::int64_t blo, std::int64_t bhi) {
            auto abuf = runtime::Workspace::tls().acquire(
                static_cast<std::size_t>(kMC * kc));
            float* ap = abuf.data();
            for (std::int64_t blk = blo; blk < bhi; ++blk) {
              const std::int64_t i0 = blk * kMC;
              const std::int64_t mc = std::min(kMC, m - i0);
              const std::int64_t mpanels = (mc + kMR - 1) / kMR;
              for (std::int64_t ip = 0; ip < mpanels; ++ip) {
                pack_a_panel(a, pc, kc, i0 + ip * kMR,
                             std::min<std::int64_t>(kMR, mc - ip * kMR),
                             ap + ip * kc * kMR);
              }
              // ip outer: the MR×kc A panel stays L1-resident while the
              // B panels stream past it.
              for (std::int64_t ip = 0; ip < mpanels; ++ip) {
                const std::int64_t mr =
                    std::min<std::int64_t>(kMR, mc - ip * kMR);
                for (std::int64_t jp = 0; jp < npanels; ++jp) {
                  const std::int64_t nr =
                      std::min<std::int64_t>(kNR, nc - jp * kNR);
                  float acc[kMR * kNR] = {};
                  micro_kernel(kc, ap + ip * kc * kMR, bp + jp * kc * kNR,
                               acc);
                  for (std::int64_t i = 0; i < mr; ++i) {
                    float* crow =
                        c + (i0 + ip * kMR + i) * ldc + jc + jp * kNR;
                    const float* arow = acc + i * kNR;
                    for (std::int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
                  }
                }
              }
            }
          },
          std::max<std::int64_t>(1, kDispatchWork / (kMC * kc * nc)));
    }
  }
}

}  // namespace chiron::tensor::detail
