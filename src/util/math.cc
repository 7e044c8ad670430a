#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "util/logging.h"

namespace nsc {

double LogSumExp(const std::vector<double>& x) {
  if (x.empty()) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(x.begin(), x.end());
  if (!std::isfinite(m)) return m;
  double sum = 0.0;
  for (double v : x) sum += std::exp(v - m);
  return m + std::log(sum);
}

void SoftmaxInPlace(std::vector<double>* x) {
  if (x->empty()) return;
  const double m = *std::max_element(x->begin(), x->end());
  double sum = 0.0;
  for (double& v : *x) {
    v = std::exp(v - m);
    sum += v;
  }
  for (double& v : *x) v /= sum;
}

double Sigmoid(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

double Log1pExp(double x) {
  if (x > 35.0) return x;
  if (x < -35.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

float Dot(const float* a, const float* b, int n) {
  float s = 0.0f;
  for (int i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

float L2Norm(const float* a, int n) { return std::sqrt(Dot(a, a, n)); }

float L1Norm(const float* a, int n) {
  float s = 0.0f;
  for (int i = 0; i < n; ++i) s += std::fabs(a[i]);
  return s;
}

void Axpy(float alpha, const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(float alpha, float* a, int n) {
  for (int i = 0; i < n; ++i) a[i] *= alpha;
}

namespace {

// A key packed with its index, ordered (key desc, index asc) by integer
// compares alone: `key` is the bit pattern of the double mapped so that
// unsigned order is descending order of the value.
struct KeyedIndex {
  uint64_t key;
  uint32_t index;
};

inline bool operator<(const KeyedIndex& a, const KeyedIndex& b) {
  return a.key != b.key ? a.key < b.key : a.index < b.index;
}

inline uint64_t DescendingKey(double x) {
  x += 0.0;  // -0.0 + 0.0 == +0.0: both zeros get the same key.
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  // Ascending value order is ascending (bits | sign) for non-negative and
  // ascending ~bits for negative doubles; complement it for descending.
  constexpr uint64_t kSign = 1ULL << 63;
  return (bits & kSign) != 0 ? bits : ~(bits | kSign);
}

// Writes the indices of the k largest of key(0), ..., key(n-1) to `out`
// in (key desc, index asc) order. key(i) is called once per i, in index
// order. nth_element + sort of the k survivors over packed integers beats
// partial_sort over (double, int) pairs or an index-based comparator,
// whose data-dependent branches mispredict.
template <typename KeyFn>
void SelectTopK(size_t n, int k, KeyFn key, std::vector<int>* out) {
  CHECK_GE(k, 0);
  CHECK_LE(static_cast<size_t>(k), n);
  static thread_local std::vector<KeyedIndex> keyed;
  keyed.resize(n);
  for (size_t i = 0; i < n; ++i) {
    keyed[i] = {DescendingKey(key(i)), static_cast<uint32_t>(i)};
  }
  std::nth_element(keyed.begin(), keyed.begin() + k, keyed.end());
  std::sort(keyed.begin(), keyed.begin() + k);
  out->resize(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) (*out)[i] = static_cast<int>(keyed[i].index);
}

}  // namespace

void GumbelTopK(const double* logits, size_t n, int k, Rng* rng,
                std::vector<int>* out) {
  SelectTopK(
      n, k,
      [&](size_t i) {
        return (logits != nullptr ? logits[i] : 0.0) + rng->Gumbel();
      },
      out);
}

std::vector<int> GumbelTopK(const std::vector<double>& logits, int k, Rng* rng) {
  std::vector<int> out;
  GumbelTopK(logits.data(), logits.size(), k, rng, &out);
  return out;
}

std::vector<int> TopK(const std::vector<double>& values, int k) {
  std::vector<int> out;
  SelectTopK(values.size(), k, [&](size_t i) { return values[i]; }, &out);
  return out;
}

}  // namespace nsc
