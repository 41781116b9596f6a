// The blocked packed GEMM (tensor/gemm.h) behind matmul/matmul_bt/
// matmul_at: agreement with a naive double-accumulated reference on
// ragged shapes (nothing divisible by MR/NR/KC/MC), degenerate m/n/k = 1
// edges, bit-identity across thread counts, storage reuse through the
// `_into` variants, and bit-identity of the direct small-shape path with
// the packed path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "runtime/runtime.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace chiron::tensor {
namespace {

// Naive reference with double accumulators: the ground truth the blocked
// kernel must match to float rounding.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a.at2(i, kk)) * b.at2(kk, j);
      c.at2(i, j) = static_cast<float>(acc);
    }
  return c;
}

void expect_close(const Tensor& got, const Tensor& want, float tol) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.size(); ++i) {
    const float scale = std::max(1.f, std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol * scale) << "element " << i;
  }
}

struct Dims {
  std::int64_t m, k, n;
};

// Ragged everywhere: m not divisible by MR/MC, n not by NR, k crossing
// KC (multi-panel reduction), plus every degenerate 1-extent edge.
const Dims kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {5, 1, 9},    {1, 40, 33},
    {17, 23, 3}, {70, 65, 19}, {130, 40, 70}, {64, 512, 8},
    {33, 600, 21},  // k > KC: exercises the serial K-panel accumulation
};

TEST(Gemm, MatchesNaiveReferenceOnRaggedShapes) {
  for (const auto& d : kShapes) {
    Rng rng(static_cast<std::uint64_t>(d.m * 1000003 + d.k * 1009 + d.n));
    Tensor a = Tensor::uniform({d.m, d.k}, rng, -1.f, 1.f);
    Tensor b = Tensor::uniform({d.k, d.n}, rng, -1.f, 1.f);
    SCOPED_TRACE(testing::Message() << "m=" << d.m << " k=" << d.k
                                    << " n=" << d.n);
    expect_close(matmul(a, b), ref_matmul(a, b), 1e-5f);
  }
}

TEST(Gemm, VariantsMatchReferenceOnRaggedShapes) {
  for (const auto& d : kShapes) {
    Rng rng(static_cast<std::uint64_t>(d.m * 7919 + d.k * 104729 + d.n));
    Tensor a = Tensor::uniform({d.m, d.k}, rng, -1.f, 1.f);
    Tensor b = Tensor::uniform({d.k, d.n}, rng, -1.f, 1.f);
    SCOPED_TRACE(testing::Message() << "m=" << d.m << " k=" << d.k
                                    << " n=" << d.n);
    const Tensor want = ref_matmul(a, b);
    expect_close(matmul_bt(a, transpose(b)), want, 1e-5f);
    expect_close(matmul_at(transpose(a), b), want, 1e-5f);
  }
}

TEST(Gemm, ThreadCountNeverChangesBits) {
  // The determinism contract, at the kernel level: every variant (and
  // im2col) must produce bit-identical outputs at --threads 1 and 8,
  // including on ragged multi-K-panel shapes.
  Rng rng(42);
  Tensor a = Tensor::uniform({70, 530}, rng, -1.f, 1.f);
  Tensor b = Tensor::uniform({530, 19}, rng, -1.f, 1.f);
  Tensor x = Tensor::uniform({3, 4, 11, 9}, rng);
  const ConvGeom g{4, 11, 9, 3, 2, 1};

  runtime::set_threads(1);
  const Tensor mm1 = matmul(a, b);
  const Tensor bt1 = matmul_bt(a, transpose(b));
  const Tensor at1 = matmul_at(transpose(a), b);
  const Tensor ic1 = im2col(x, g);
  runtime::set_threads(8);
  const Tensor mm8 = matmul(a, b);
  const Tensor bt8 = matmul_bt(a, transpose(b));
  const Tensor at8 = matmul_at(transpose(a), b);
  const Tensor ic8 = im2col(x, g);
  runtime::set_threads(0);

  ASSERT_EQ(mm1.shape(), mm8.shape());
  for (std::int64_t i = 0; i < mm1.size(); ++i) {
    ASSERT_EQ(mm1[i], mm8[i]) << "matmul element " << i;
    ASSERT_EQ(bt1[i], bt8[i]) << "matmul_bt element " << i;
    ASSERT_EQ(at1[i], at8[i]) << "matmul_at element " << i;
  }
  ASSERT_EQ(ic1.shape(), ic8.shape());
  for (std::int64_t i = 0; i < ic1.size(); ++i)
    ASSERT_EQ(ic1[i], ic8[i]) << "im2col element " << i;
}

TEST(Gemm, IntoVariantsReuseStorageAndStayCorrect) {
  Rng rng(7);
  Tensor big_a = Tensor::uniform({40, 30}, rng, -1.f, 1.f);
  Tensor big_b = Tensor::uniform({30, 20}, rng, -1.f, 1.f);
  Tensor out;
  matmul_into(big_a, big_b, out);
  const float* storage = out.data();
  expect_close(out, ref_matmul(big_a, big_b), 1e-5f);

  // A smaller product must reuse the same allocation, and a repeat of the
  // first product must reproduce it bit-for-bit despite the stale data.
  Tensor small_a = Tensor::uniform({5, 9}, rng, -1.f, 1.f);
  Tensor small_b = Tensor::uniform({9, 4}, rng, -1.f, 1.f);
  matmul_into(small_a, small_b, out);
  EXPECT_EQ(out.data(), storage) << "shrinking resize reallocated";
  expect_close(out, ref_matmul(small_a, small_b), 1e-5f);

  const Tensor first = matmul(big_a, big_b);
  matmul_into(big_a, big_b, out);
  for (std::int64_t i = 0; i < first.size(); ++i) ASSERT_EQ(out[i], first[i]);
}

// The bit pattern of a float, so that −0.f and +0.f compare unequal.
std::uint32_t float_bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

// Uniform values with every fifth entry an exact zero of alternating
// sign, so some products are exactly −0.f and some C sums are all zeros.
std::vector<float> signed_zero_mix(std::int64_t count, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] =
        i % 5 == 0 ? (i % 10 == 0 ? -0.f : 0.f)
                   : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

TEST(Gemm, DirectPathBitEqualsPackedPath) {
  // gemm_acc picks a path by shape alone, so batch-of-N and N singles can
  // take different paths: the two must agree bit for bit (signed zeros
  // included) on every shape and view, into a C that already holds
  // values, at any thread count.
  using detail::gemm_direct;
  using detail::gemm_packed;
  using detail::kKC;
  using detail::kMR;
  using detail::kNR;
  using detail::MatView;
  const std::int64_t ms[] = {1, kMR - 1, kMR, kMR + 1, 50};
  const std::int64_t ns[] = {1, 5, kNR - 1, 64};
  const std::int64_t ks[] = {1, 12, 64, kKC, kKC + 1};
  enum class View { kRowMajor, kBt, kAt };
  for (const int threads : {1, 8}) {
    runtime::set_threads(threads);
    for (const std::int64_t m : ms) {
      for (const std::int64_t n : ns) {
        for (const std::int64_t k : ks) {
          Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 131 + k));
          // a and b hold the operands in whichever layout each view reads.
          const std::vector<float> a = signed_zero_mix(m * k, rng);
          const std::vector<float> b = signed_zero_mix(k * n, rng);
          const std::vector<float> c0 = signed_zero_mix(m * n, rng);
          for (const View view : {View::kRowMajor, View::kBt, View::kAt}) {
            MatView av{a.data(), m, k, k, 1};
            MatView bv{b.data(), k, n, n, 1};
            if (view == View::kBt) bv = {b.data(), k, n, 1, k};
            if (view == View::kAt) av = {a.data(), m, k, 1, m};
            std::vector<float> direct = c0;
            std::vector<float> packed = c0;
            gemm_direct(av, bv, direct.data(), n);
            gemm_packed(av, bv, packed.data(), n);
            SCOPED_TRACE(testing::Message()
                         << "threads=" << threads << " m=" << m << " n=" << n
                         << " k=" << k << " view=" << static_cast<int>(view));
            for (std::size_t i = 0; i < direct.size(); ++i)
              EXPECT_EQ(float_bits(direct[i]), float_bits(packed[i]))
                  << "element " << i << ": " << direct[i] << " vs "
                  << packed[i];
          }
        }
      }
    }
  }
  runtime::set_threads(0);
}

TEST(Gemm, DenseNoLongerSkipsZeros) {
  // The old kernel special-cased aik == 0 by skipping the row; the packed
  // kernel must treat zeros as ordinary values. 0 · inf = nan is the
  // observable difference — IEEE semantics, not a skip.
  Tensor a({1, 2}, {0.f, 1.f});
  const float inf = std::numeric_limits<float>::infinity();
  Tensor b({2, 1}, {inf, 2.f});
  EXPECT_TRUE(std::isnan(matmul(a, b)[0]));
}

TEST(Gemm, InnerDimMismatchStillThrows) {
  Tensor a({2, 3});
  EXPECT_THROW(matmul_bt(a, Tensor({2, 4})), InvariantError);
  EXPECT_THROW(matmul_at(a, Tensor({4, 2})), InvariantError);
}

}  // namespace
}  // namespace chiron::tensor
