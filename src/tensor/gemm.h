// Cache-blocked packed SGEMM — the single kernel behind tensor::matmul,
// tensor::matmul_bt and tensor::matmul_at.
//
// Architecture (BLIS-style, see DESIGN.md §5.7):
//
//   for jc over N in NC panels            (outer: column strip of C)
//     for pc over K in KC panels          (serial: fixes reduction order)
//       pack B[pc:pc+kc, jc:jc+nc] into NR-interleaved panels   (parallel)
//       for ic over M in MC blocks        (parallel: disjoint C rows)
//         pack A[ic:ic+mc, pc:pc+kc] into MR-interleaved panels
//         for each NR column panel × MR row panel:
//           MR×NR register micro-kernel over the kc-long dot products
//
// Both operands are consumed through a strided MatView, so the transposed
// variants (B^T stored row-major, A^T stored row-major) reuse the same
// packing and micro-kernel — the stride disappears at pack time and the
// inner loops always stream unit-stride packed panels.
//
// Products with fewer rows than one MR panel skip all of this and take
// the direct path (gemm_direct below), which computes the same per-element
// sums straight from the strided views.
//
// Determinism contract: the path choice, the tile grid and the panel
// schedule depend only on (m, n, k) and the compile-time block constants —
// never on the thread count. Every C element is accumulated by exactly one
// task per K panel, K panels are visited serially in ascending order, and
// the micro-kernel sums kk in ascending order, so results are
// bit-identical from --threads 1 to --threads N. Ragged edges are handled
// by zero-padding the packed panels to full MR/NR tiles: the padded lanes
// contribute exact 0.f terms, so edge elements see the same arithmetic as
// interior ones.
#pragma once

#include <cstdint>

namespace chiron::tensor::detail {

// Micro-tile footprint, chosen so the MR×NR accumulator block exactly
// fills the target ISA's vector register file (measured on GCC 12; see
// DESIGN.md §5.7). The shape never changes results — every C element is
// the same ascending-kk sum regardless of tile geometry, and gemm.cpp
// builds with -ffp-contract=off — so the default and CHIRON_NATIVE builds
// compute bit-identical products.
#if defined(__AVX512F__)
inline constexpr int kMR = 8;   // 8 rows × 2 zmm = 16 accumulators
inline constexpr int kNR = 32;
#elif defined(__AVX2__)
inline constexpr int kMR = 4;   // 4 rows × 4 ymm = 16 accumulators
inline constexpr int kNR = 32;
#else
inline constexpr int kMR = 16;  // 16 rows × 1 xmm = 16 accumulators
inline constexpr int kNR = 4;
#endif
// Panel sizes: KC covers every K that occurs in the repo's models (the
// largest is LeNet's 400-wide flatten), so in-tree workloads see a single
// K panel and keep the exact legacy per-element summation order. MC keeps
// a packed A block (MC×KC floats) inside L2.
inline constexpr std::int64_t kKC = 512;
inline constexpr std::int64_t kMC = 64;  // multiple of every kMR above
inline constexpr std::int64_t kNC = 1024;
static_assert(kMC % kMR == 0, "A blocks must hold whole MR panels");

/// Strided read-only matrix view: element (r, c) is data[r*rs + c*cs].
struct MatView {
  const float* data;
  std::int64_t rows, cols;
  std::int64_t rs, cs;
};

/// C(m×n, row-major, leading dimension ldc) += A · B where A is an m×k
/// view and B is a k×n view. The caller zeroes C for plain products.
/// Dispatches to gemm_direct when use_direct(m), else gemm_packed.
void gemm_acc(const MatView& a, const MatView& b, float* c, std::int64_t ldc);

/// The direct small-shape rule. A product with fewer rows than one MR
/// panel would pack all of B and pad A to a full panel for a handful of
/// rows (a batch-1 policy act, a batch-1 price request, a batch-10 local
/// SGD step), so it runs the direct kernel instead. Depends only on the
/// shape and compile-time constants, never on the thread count.
constexpr bool use_direct(std::int64_t m) { return m < kMR; }

/// The packed BLIS path above, for any shape.
void gemm_packed(const MatView& a, const MatView& b, float* c,
                 std::int64_t ldc);

/// The direct path: reads A and B through their strides with no packing,
/// no zero padding, no workspace and no task dispatch, on the calling
/// thread. Each C element is the packed path's arithmetic exactly — an
/// ascending-kk float sum started at 0.f per KC panel, added into C once
/// per panel — so both paths give bit-identical results on every shape.
void gemm_direct(const MatView& a, const MatView& b, float* c,
                 std::int64_t ldc);

}  // namespace chiron::tensor::detail
