#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "core/error.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace spiketune {

namespace {

/// Counts a GEMM call and its nominal FLOPs (2mnk; the zero-skip makes the
/// executed count lower — that gap is exactly the sparsity win).
void count_gemm(std::int64_t m, std::int64_t n, std::int64_t k) {
  if (!obs::metrics_enabled()) return;
  static const obs::MetricId kCalls = obs::counter("gemm.calls");
  static const obs::MetricId kFlops = obs::counter("gemm.flops");
  obs::add(kCalls);
  obs::add(kFlops, 2 * m * n * k);
}

// Eight floats: one AVX register; without AVX the compiler splits it in two.
using Vec = float __attribute__((vector_size(32)));
constexpr std::int64_t kLanes = sizeof(Vec) / sizeof(float);
// Register tile: kMr rows x kNr columns of C, held in kMr * kNr / kLanes
// vector accumulators for the whole depth of a k block.
constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = 32;
constexpr int kVecs = kNr / kLanes;
// Depth of a k block, which bounds the packed B panel to 32 KiB of stack.
constexpr std::int64_t kKc = 256;
// Minimum C rows per thread slice.  Small enough that the skinny GEMMs in
// the conv backward pass (m = out_channels = 32) still split across
// threads, large enough to amortize the fork-join handshake.
constexpr std::int64_t kRowGrain = 8;

void require_args(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, const float* b, const float* c) {
  ST_REQUIRE(m >= 0 && n >= 0 && k >= 0, "gemm dims must be non-negative");
  ST_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
             "gemm pointers must be non-null");
}

void scale_c(std::int64_t mn, float beta, float* c) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::fill(c, c + mn, 0.0f);
    return;
  }
  for (std::int64_t i = 0; i < mn; ++i) c[i] *= beta;
}

/// C[R, kNr] += sum over p < kc of (alpha * A[r, p]) * B[p, 0..kNr), one
/// multiply-add per nonzero term in ascending p.  Row r of A is read at
/// a + r * a_row + p * a_step, row p of B at b + p * ldb, row r of C at
/// c + r * ldc.
template <int R>
void tile(std::int64_t kc, float alpha, const float* a, std::int64_t a_row,
          std::int64_t a_step, const float* b, std::int64_t ldb, float* c,
          std::int64_t ldc) {
  Vec acc[R][kVecs];
  // memcpy is how vectors meet float rows here: a plain load or store
  // with no alignment demand, and no Vec crosses a call (its ABI differs
  // between builds with and without AVX).
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < kVecs; ++v)
      std::memcpy(&acc[r][v], c + r * ldc + v * kLanes, sizeof(Vec));
  for (std::int64_t p = 0; p < kc; ++p) {
    Vec bv[kVecs];
    for (int v = 0; v < kVecs; ++v)
      std::memcpy(&bv[v], b + p * ldb + v * kLanes, sizeof(Vec));
    for (int r = 0; r < R; ++r) {
      const float av = alpha * a[r * a_row + p * a_step];
      if (av == 0.0f) continue;  // spikes make A genuinely sparse
      for (int v = 0; v < kVecs; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < kVecs; ++v)
      std::memcpy(c + r * ldc + v * kLanes, &acc[r][v], sizeof(Vec));
}

/// Runs tile<R> for R = rows, on C directly when the tile is a full kNr
/// columns wide and otherwise on a zero-padded copy of its `cols` columns.
void run_tile(std::int64_t rows, std::int64_t cols, std::int64_t kc,
              float alpha, const float* a, std::int64_t a_row,
              std::int64_t a_step, const float* b, std::int64_t ldb, float* c,
              std::int64_t ldc) {
  alignas(64) float edge[kMr * kNr];
  float* cp = c;
  if (cols < kNr) {
    std::fill(edge, edge + kMr * kNr, 0.0f);
    for (std::int64_t r = 0; r < rows; ++r)
      std::copy(c + r * ldc, c + r * ldc + cols, edge + r * kNr);
    cp = edge;
  }
  const std::int64_t ld = cols < kNr ? kNr : ldc;
  switch (rows) {
    case 4: tile<4>(kc, alpha, a, a_row, a_step, b, ldb, cp, ld); break;
    case 3: tile<3>(kc, alpha, a, a_row, a_step, b, ldb, cp, ld); break;
    case 2: tile<2>(kc, alpha, a, a_row, a_step, b, ldb, cp, ld); break;
    default: tile<1>(kc, alpha, a, a_row, a_step, b, ldb, cp, ld); break;
  }
  if (cols < kNr)
    for (std::int64_t r = 0; r < rows; ++r)
      std::copy(edge + r * kNr, edge + r * kNr + cols, c + r * ldc);
}

/// The one GEMM behind all three entry points: C[m,n] = alpha * A * B +
/// beta * C, with A[i,p] at a[i * a_row + p * a_step] and B either [k,n]
/// row-major or, when `b_transposed`, [n,k] row-major.
///
/// Each thread slice of C rows walks k blocks, then kNr-column panels of B,
/// then kMr-row tiles.  A panel is read in place when it is a full kNr
/// columns of a row-major B, and otherwise packed into zero-padded stack
/// scratch, so the tile core always sees full-width rows.  Every C element
/// is scaled by beta first and then gets one multiply-add per term in
/// ascending p, whatever the tile, panel or slice boundaries — so the
/// three kernels round identically, and results are bit-identical to the
/// serial path for any thread count (the contract in core/parallel.h).
void gemm_tiled(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, std::int64_t a_row, std::int64_t a_step,
                const float* b, bool b_transposed, float beta, float* c) {
  parallel_for(0, m, kRowGrain, [&](std::int64_t rb, std::int64_t re) {
    scale_c((re - rb) * n, beta, c + rb * n);
    if (alpha == 0.0f || k == 0) return;
    alignas(64) float panel[kKc * kNr];
    for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
      const std::int64_t kc = std::min(kKc, k - p0);
      for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
        const std::int64_t cols = std::min(kNr, n - j0);
        const float* bp = panel;
        std::int64_t ldb = kNr;
        if (b_transposed) {
          for (std::int64_t jj = 0; jj < cols; ++jj) {
            const float* brow = b + (j0 + jj) * k + p0;
            for (std::int64_t p = 0; p < kc; ++p) panel[p * kNr + jj] = brow[p];
          }
          for (std::int64_t p = 0; p < kc; ++p)
            std::fill(panel + p * kNr + cols, panel + (p + 1) * kNr, 0.0f);
        } else if (cols < kNr) {
          for (std::int64_t p = 0; p < kc; ++p) {
            float* dst = panel + p * kNr;
            std::copy(b + (p0 + p) * n + j0, b + (p0 + p) * n + n, dst);
            std::fill(dst + cols, dst + kNr, 0.0f);
          }
        } else {
          bp = b + p0 * n + j0;
          ldb = n;
        }
        for (std::int64_t i = rb; i < re; i += kMr) {
          const float* ap = a + i * a_row + p0 * a_step;
          float* cp = c + i * n + j0;
          run_tile(std::min(kMr, re - i), cols, kc, alpha, ap, a_row, a_step,
                   bp, ldb, cp, n);
        }
      }
    }
  });
}

}  // namespace

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  ST_PROF_SCOPE("gemm");
  require_args(m, n, k, a, b, c);
  if (m == 0 || n == 0) return;
  count_gemm(m, n, k);
  gemm_tiled(m, n, k, alpha, a, k, 1, b, false, beta, c);
}

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c) {
  ST_PROF_SCOPE("gemm_tn");
  require_args(m, n, k, a, b, c);
  if (m == 0 || n == 0) return;
  count_gemm(m, n, k);
  gemm_tiled(m, n, k, alpha, a, 1, m, b, false, beta, c);
}

void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c) {
  ST_PROF_SCOPE("gemm_nt");
  require_args(m, n, k, a, b, c);
  if (m == 0 || n == 0) return;
  count_gemm(m, n, k);
  gemm_tiled(m, n, k, alpha, a, k, 1, b, true, beta, c);
}

}  // namespace spiketune
