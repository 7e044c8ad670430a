// Small numeric kernels shared across the embedding and sampling code:
// stable softmax / logsumexp, vector primitives, and Gumbel-top-k sampling
// without replacement (used by the NSCaching importance-sampling cache
// update, Algorithm 3 of the paper).
#ifndef NSCACHING_UTIL_MATH_H_
#define NSCACHING_UTIL_MATH_H_

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace nsc {

/// Numerically stable log(sum_i exp(x_i)). Returns -inf for empty input.
double LogSumExp(const std::vector<double>& x);

/// Replaces x by softmax(x) with max-subtraction for stability.
void SoftmaxInPlace(std::vector<double>* x);

/// Logistic sigmoid 1/(1+exp(-x)), stable for large |x|.
double Sigmoid(double x);

/// log(1 + exp(x)), stable for large |x| (softplus).
double Log1pExp(double x);

/// Dot product of two length-n float arrays.
float Dot(const float* a, const float* b, int n);

/// Euclidean norm of a length-n float array.
float L2Norm(const float* a, int n);

/// Sum_i |a_i|.
float L1Norm(const float* a, int n);

/// y += alpha * x for length-n arrays.
void Axpy(float alpha, const float* x, float* y, int n);

/// Scales a length-n array in place.
void Scale(float alpha, float* a, int n);

/// Samples k distinct indices from {0..n-1} with probability proportional
/// to exp(logits[i]), *without replacement*, via the Gumbel-top-k trick
/// (Kool et al., ICML 2019): the k largest keys logits[i] + G_i, with one
/// Gumbel(0,1) draw G_i per index in index order. Requires k <= n. A null
/// `logits` stands for n zero logits (uniform sampling without
/// replacement).
///
/// Order contract: `out` lists the survivors by key descending, equal keys
/// by index ascending; -0.0 and +0.0 keys are equal. Callers depend on it:
/// the NSCaching refresh writes survivors into cache slots in this order,
/// and the synthetic KG generator emits neighbours in it.
///
/// The keys live in a per-thread buffer, so once the calling thread has
/// seen an n this large and `out` has capacity k, a call allocates nothing.
void GumbelTopK(const double* logits, size_t n, int k, Rng* rng,
                std::vector<int>* out);

/// Convenience form of the above over a vector of logits.
std::vector<int> GumbelTopK(const std::vector<double>& logits, int k, Rng* rng);

/// Deterministic top-k: indices of the k largest values, in GumbelTopK's
/// order (value desc, equal values by index asc, -0.0 == +0.0). Requires
/// k <= values.size().
std::vector<int> TopK(const std::vector<double>& values, int k);

}  // namespace nsc

#endif  // NSCACHING_UTIL_MATH_H_
