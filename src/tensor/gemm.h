// Register-tiled single-precision GEMM kernels.
//
// The training stack lowers convolution (via im2col) and fully-connected
// layers onto these three primitives:
//   gemm       : C  = alpha * A  * B  + beta * C      [m,k]x[k,n]
//   gemm_tn    : C  = alpha * A' * B  + beta * C      [k,m]'x[k,n]
//   gemm_nt    : C  = alpha * A  * B' + beta * C      [m,k]x[n,k]'
// All matrices are dense row-major.  One core serves all three: it keeps a
// 4 x 32 tile of C in vector registers across a k block (gemm_nt first
// packs a panel of B' into stack scratch).  Each C element is scaled by
// beta, then gets one multiply-add (alpha * A[i,p]) * B[p,j] per term in
// ascending p, skipping terms whose alpha * A[i,p] is exactly zero — so
// spike inputs cost only their nonzeros, and the three kernels give
// bit-identical results for the same product, at any thread count.  With
// -march=native on an AVX-512 Xeon they run at about 10–16 GMAC/s on one
// core at the csnn training shapes; they are not a BLAS replacement.
#pragma once

#include <cstdint>

namespace spiketune {

/// C[m,n] = alpha * A[m,k] * B[k,n] + beta * C[m,n]
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// C[m,n] = alpha * A[k,m]^T * B[k,n] + beta * C[m,n]
void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c);

/// C[m,n] = alpha * A[m,k] * B[n,k]^T + beta * C[m,n]
void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c);

}  // namespace spiketune
