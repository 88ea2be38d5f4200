// GEMM kernels vs a naive reference, including a property-style sweep over
// shapes (parameterized) and alpha/beta handling, plus exact cross-kernel
// agreement: the three kernels share one arithmetic, so they must agree
// bit for bit.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "tensor/gemm.h"

namespace spiketune {
namespace {

std::vector<float> random_matrix(std::int64_t n, Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(n));
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void reference_gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                    float alpha, const float* a, const float* b, float beta,
                    float* c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = static_cast<float>(alpha * acc + beta * c[i * n + j]);
    }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.5f);
  std::vector<float> ref = c;

  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  reference_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-3f) << "at " << i;
}

TEST_P(GemmShapes, TransposedAMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + n * 13 + k * 17));
  // A stored as [k, m]; reference computes with A'[m, k].
  const auto a_t = random_matrix(k * m, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t i = 0; i < m; ++i) a[i * k + p] = a_t[p * m + i];

  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> ref = c;
  gemm_tn(m, n, k, 1.0f, a_t.data(), b.data(), 0.0f, c.data());
  reference_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-3f) << "at " << i;
}

TEST_P(GemmShapes, TransposedBMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + n * 5 + k * 7));
  const auto a = random_matrix(m * k, rng);
  // B stored as [n, k]; reference computes with B'[k, n].
  const auto b_t = random_matrix(n * k, rng);
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t p = 0; p < k; ++p) b[p * n + j] = b_t[j * k + p];

  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> ref = c;
  gemm_nt(m, n, k, 1.0f, a.data(), b_t.data(), 0.0f, c.data());
  reference_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-3f) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(1, 64, 9),
                      std::make_tuple(65, 3, 130), std::make_tuple(70, 300, 2),
                      std::make_tuple(128, 33, 257)));

TEST(Gemm, AlphaBetaComposition) {
  const std::int64_t m = 4, n = 3, k = 5;
  Rng rng(9);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 2.0f);
  std::vector<float> ref = c;
  gemm(m, n, k, 0.5f, a.data(), b.data(), 0.25f, c.data());
  reference_gemm(m, n, k, 0.5f, a.data(), b.data(), 0.25f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

TEST(Gemm, BetaOnePreservesAccumulator) {
  const std::int64_t m = 2, n = 2, k = 2;
  const std::vector<float> a{1, 0, 0, 1};
  const std::vector<float> b{1, 2, 3, 4};
  std::vector<float> c{10, 10, 10, 10};
  gemm(m, n, k, 1.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  const std::int64_t m = 2, n = 2, k = 2;
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c{1, 2, 3, 4};
  gemm(m, n, k, 0.0f, a.data(), b.data(), 0.5f, c.data());
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

TEST(Gemm, SparseInputCorrect) {
  // Exercise the zero-skip fast path with a mostly-zero (spike-like) A.
  const std::int64_t m = 8, n = 16, k = 32;
  Rng rng(5);
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  for (auto& v : a)
    if (rng.bernoulli(0.1)) v = 1.0f;
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> ref = c;
  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  reference_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

std::vector<float> transpose(const std::vector<float>& x, std::int64_t rows,
                             std::int64_t cols) {
  std::vector<float> t(x.size());
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c) t[c * rows + r] = x[r * cols + c];
  return t;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// gemm_nt(A, B') == gemm(A, B) == gemm_tn(A', B) with memcmp, for each
// alpha and beta, from the same starting C.  `spikes` makes A a 0/1 matrix
// so the exact-zero skip runs on most terms.
void expect_kernels_agree(std::int64_t m, std::int64_t n, std::int64_t k,
                          bool spikes) {
  Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 131 + k));
  std::vector<float> a = random_matrix(m * k, rng);
  if (spikes)
    for (auto& v : a) v = rng.bernoulli(0.1) ? 1.0f : 0.0f;
  const auto b = random_matrix(k * n, rng);
  const auto c0 = random_matrix(m * n, rng);
  const auto a_t = transpose(a, m, k);
  const auto b_t = transpose(b, k, n);
  for (const float alpha : {1.0f, -0.37f})
    for (const float beta : {0.0f, 1.0f, 0.7f}) {
      auto nn = c0, tn = c0, nt = c0;
      gemm(m, n, k, alpha, a.data(), b.data(), beta, nn.data());
      gemm_tn(m, n, k, alpha, a_t.data(), b.data(), beta, tn.data());
      gemm_nt(m, n, k, alpha, a.data(), b_t.data(), beta, nt.data());
      EXPECT_TRUE(same_bits(nn, tn)) << "gemm vs gemm_tn, alpha " << alpha
                                     << " beta " << beta;
      EXPECT_TRUE(same_bits(nn, nt)) << "gemm vs gemm_nt, alpha " << alpha
                                     << " beta " << beta;
    }
}

using GemmShape = std::tuple<int, int, int>;

class GemmExact
    : public ::testing::TestWithParam<std::tuple<GemmShape, int>> {
 protected:
  void TearDown() override { set_num_threads(1); }
};

std::string exact_case_name(
    const ::testing::TestParamInfo<std::tuple<GemmShape, int>>& info) {
  const auto [shape, threads] = info.param;
  const auto [m, n, k] = shape;
  return std::to_string(m) + "x" + std::to_string(n) + "x" +
         std::to_string(k) + "_t" + std::to_string(threads);
}

TEST_P(GemmExact, KernelsAgreeBitwise) {
  const auto [shape, threads] = GetParam();
  const auto [m, n, k] = shape;
  set_num_threads(threads);
  expect_kernels_agree(m, n, k, /*spikes=*/false);
  expect_kernels_agree(m, n, k, /*spikes=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmExact,
    ::testing::Combine(
        ::testing::Values(
            // Off every tile edge (4 rows x 32 columns, 256-deep k blocks).
            std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
            std::make_tuple(5, 33, 1), std::make_tuple(7, 31, 300),
            std::make_tuple(9, 65, 257), std::make_tuple(13, 95, 513),
            // csnn training shapes on SynthSvhn 16x16: conv2 forward,
            // conv2 input gradient, conv2 weight gradient, fc1 forward.
            std::make_tuple(32, 64, 288), std::make_tuple(288, 64, 32),
            std::make_tuple(32, 288, 64), std::make_tuple(32, 256, 512)),
        ::testing::Values(1, 4)),
    exact_case_name);

TEST(Gemm, ZeroSkipIgnoresNonFiniteB) {
  // A term whose A entry is exactly zero is skipped, not multiplied: 0 * inf
  // would turn C into NaN.  All three kernels skip the same terms.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> a{1, 0, 0, 1};    // [2, 2]
  const std::vector<float> b{1, 2, inf, 3};  // [2, 2]
  const auto a_t = transpose(a, 2, 2);
  const auto b_t = transpose(b, 2, 2);
  std::vector<float> nn(4, 0.0f), tn(4, 0.0f), nt(4, 0.0f);
  gemm(2, 2, 2, 1.0f, a.data(), b.data(), 0.0f, nn.data());
  gemm_tn(2, 2, 2, 1.0f, a_t.data(), b.data(), 0.0f, tn.data());
  gemm_nt(2, 2, 2, 1.0f, a.data(), b_t.data(), 0.0f, nt.data());
  EXPECT_EQ(nn, (std::vector<float>{1, 2, inf, 3}));
  EXPECT_TRUE(same_bits(nn, tn));
  EXPECT_TRUE(same_bits(nn, nt));
}

}  // namespace
}  // namespace spiketune
