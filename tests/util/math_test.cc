#include "util/math.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>

namespace nsc {
namespace {

TEST(LogSumExpTest, MatchesDirectComputation) {
  std::vector<double> x = {0.5, -1.0, 2.0};
  double direct = std::log(std::exp(0.5) + std::exp(-1.0) + std::exp(2.0));
  EXPECT_NEAR(LogSumExp(x), direct, 1e-12);
}

TEST(LogSumExpTest, StableForLargeValues) {
  std::vector<double> x = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(x), 1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSumExpTest, EmptyIsMinusInfinity) {
  EXPECT_TRUE(std::isinf(LogSumExp({})));
  EXPECT_LT(LogSumExp({}), 0.0);
}

TEST(SoftmaxTest, SumsToOneAndOrders) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  SoftmaxInPlace(&x);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0, 1e-12);
  EXPECT_LT(x[0], x[1]);
  EXPECT_LT(x[1], x[2]);
}

TEST(SoftmaxTest, StableForHugeLogits) {
  std::vector<double> x = {1e6, 1e6 - 1.0};
  SoftmaxInPlace(&x);
  EXPECT_NEAR(x[0] + x[1], 1.0, 1e-12);
  EXPECT_GT(x[0], x[1]);
}

TEST(SigmoidTest, SymmetryAndRange) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(3.0) + Sigmoid(-3.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
}

TEST(Log1pExpTest, MatchesReferenceAndIsStable) {
  EXPECT_NEAR(Log1pExp(0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(Log1pExp(1.5), std::log1p(std::exp(1.5)), 1e-12);
  EXPECT_NEAR(Log1pExp(100.0), 100.0, 1e-9);
  EXPECT_NEAR(Log1pExp(-100.0), std::exp(-100.0), 1e-12);
}

TEST(VectorOpsTest, DotAndNorms) {
  const float a[] = {1.0f, -2.0f, 3.0f};
  const float b[] = {4.0f, 5.0f, -6.0f};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 4.0f - 10.0f - 18.0f);
  EXPECT_FLOAT_EQ(L2Norm(a, 3), std::sqrt(14.0f));
  EXPECT_FLOAT_EQ(L1Norm(a, 3), 6.0f);
}

TEST(VectorOpsTest, AxpyAndScale) {
  const float x[] = {1.0f, 2.0f};
  float y[] = {10.0f, 20.0f};
  Axpy(2.0f, x, y, 2);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
  Scale(0.5f, y, 2);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 12.0f);
}

TEST(GumbelTopKTest, ReturnsDistinctIndices) {
  Rng rng(3);
  std::vector<double> logits(20, 0.0);
  for (int trial = 0; trial < 50; ++trial) {
    auto picked = GumbelTopK(logits, 5, &rng);
    std::set<int> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), 5u);
    for (int i : picked) {
      EXPECT_GE(i, 0);
      EXPECT_LT(i, 20);
    }
  }
}

TEST(GumbelTopKTest, KEqualsNReturnsAll) {
  Rng rng(4);
  std::vector<double> logits = {0.1, 5.0, -2.0};
  auto picked = GumbelTopK(logits, 3, &rng);
  std::set<int> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique, (std::set<int>{0, 1, 2}));
}

// Reference order of the GumbelTopK / TopK contract: a full stable sort by
// key descending, so equal keys (-0.0 == +0.0 included) keep index order.
std::vector<int> ReferenceTopK(const std::vector<double>& keys, int k) {
  std::vector<int> idx(keys.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](int a, int b) { return keys[a] > keys[b]; });
  idx.resize(k);
  return idx;
}

// The selection order is pinned (the NSCaching cache-slot order depends on
// it), including exact key ties and signed zeros. The keys are recomputed
// from a copy of the generator: one Gumbel draw per index, in index order.
TEST(GumbelTopKTest, OrderMatchesFullSortWithTiesAndSignedZeros) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + trial % 37;
    Rng copy = rng;
    std::vector<double> gumbel(n);
    for (double& g : gumbel) g = copy.Gumbel();
    std::vector<double> logits(n);
    for (int i = 0; i < n; ++i) {
      switch (i % 4) {
        case 0:  // Swamped by the logit: equal keys +1e300.
          logits[i] = 1e300;
          break;
        case 1:  // Exact cancellation: key +0.0.
          logits[i] = -gumbel[i];
          break;
        case 2:  // Below every other key: equal keys -inf.
          logits[i] = -std::numeric_limits<double>::infinity();
          break;
        default:
          logits[i] = 0.25 * (i % 7) - 1.0;
      }
    }
    std::vector<double> keys(n);
    for (int i = 0; i < n; ++i) keys[i] = logits[i] + gumbel[i];
    const int k = (trial * 7) % (n + 1);
    std::vector<int> got;
    GumbelTopK(logits.data(), logits.size(), k, &rng, &got);
    EXPECT_EQ(got, ReferenceTopK(keys, k)) << "n=" << n << " k=" << k;
    // Same number of draws as keys: the streams stay in step.
    EXPECT_EQ(rng.Next(), copy.Next());
  }
}

TEST(GumbelTopKTest, NullLogitsAreZeroLogits) {
  Rng a(5);
  Rng b(5);
  const std::vector<double> zeros(30, 0.0);
  std::vector<int> got;
  GumbelTopK(nullptr, zeros.size(), 12, &a, &got);
  EXPECT_EQ(got, GumbelTopK(zeros, 12, &b));
}

TEST(TopKTest, SignedZerosAndTiesFollowIndexOrder) {
  const std::vector<double> v = {0.0,  -0.0, 1.0, -0.0, 0.0,
                                 -1.0, 1.0,  0.0, -0.0, 2.0};
  for (int k = 0; k <= static_cast<int>(v.size()); ++k) {
    EXPECT_EQ(TopK(v, k), ReferenceTopK(v, k)) << "k=" << k;
  }
  // Spelled out: 9 (2.0), 2 and 6 (1.0), then every zero by index.
  EXPECT_EQ(TopK(v, 6), (std::vector<int>{9, 2, 6, 0, 1, 3}));
}

// Property: Gumbel-top-1 equals categorical sampling under softmax(logits).
TEST(GumbelTopKTest, Top1MatchesSoftmaxFrequencies) {
  Rng rng(5);
  std::vector<double> logits = {0.0, 1.0, 2.0};
  std::vector<double> probs = logits;
  SoftmaxInPlace(&probs);
  std::map<int, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[GumbelTopK(logits, 1, &rng)[0]];
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(counts[i] / double(n), probs[i], 0.01) << "index " << i;
  }
}

// Property: high-logit entries are selected (exploitation) but low-logit
// entries still enter occasionally (exploration) — the balance Algorithm 3
// relies on.
TEST(GumbelTopKTest, HighLogitsDominateButDoNotMonopolize) {
  Rng rng(6);
  std::vector<double> logits = {5.0, 5.0, 5.0, 0.0, 0.0, 0.0};
  int high_picked = 0, low_picked = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    for (int idx : GumbelTopK(logits, 3, &rng)) {
      (idx < 3 ? high_picked : low_picked)++;
    }
  }
  EXPECT_GT(high_picked, low_picked * 5);
  EXPECT_GT(low_picked, 0);
}

TEST(TopKTest, DeterministicLargest) {
  std::vector<double> v = {0.5, 3.0, -1.0, 3.0, 2.0};
  auto top = TopK(v, 3);
  ASSERT_EQ(top.size(), 3u);
  // Ties broken by lower index: 1 (3.0), 3 (3.0), 4 (2.0).
  EXPECT_EQ(top[0], 1);
  EXPECT_EQ(top[1], 3);
  EXPECT_EQ(top[2], 4);
}

TEST(TopKTest, FullSelectionIsPermutation) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  auto top = TopK(v, 4);
  EXPECT_EQ(top, (std::vector<int>{0, 2, 3, 1}));
}

}  // namespace
}  // namespace nsc
