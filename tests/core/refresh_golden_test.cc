// Bit-level goldens for the NSCaching cache refresh and the synthetic KG
// generator — the tripwire for rewrites of CacheUpdater and GumbelTopK
// that must not change a single bit.
//
// Cache goldens: a small synthetic KG (plus one hub key whose tail list
// covers nearly every entity, so the false-negative filter exhausts its
// redraw budget and admits known-true candidates) is trained for two
// NSCaching epochs at num_threads = 1 on the forced-scalar dispatch path,
// for every update strategy with the filter on and off. Each run pins a
// 64-bit hash of every head and tail cache entry in slot order, plus the
// summed changed-element and true-admission counters. The cache-slot order
// is part of the contract: it decides which candidate a uniform select
// draws, so it is hashed, not normalised away.
//
// Graph goldens: a hash of the graph perfbench trains on (2000 entities,
// generator seed 7), and of a sampled-neighbourhood graph, which is the
// generator path that draws through GumbelTopK.
//
// The goldens were recorded on gcc, -O2/-O3, scalar path. To re-record
// after an INTENTIONAL semantic change, run with NSC_PRINT_GOLDENS=1 and
// paste the printed rows over the constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/nscaching_sampler.h"
#include "kg/kg_index.h"
#include "kg/synthetic.h"
#include "train/trainer.h"
#include "util/env.h"
#include "util/simd.h"

namespace nsc {
namespace {

// FNV-1a over 64-bit words.
class Hasher {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

uint64_t HashStore(const TripleStore& store, Hasher* hasher) {
  hasher->Add(store.size());
  for (const Triple& x : store) hasher->Add(PackTriple(x));
  return hasher->value();
}

uint64_t HashDataset(const Dataset& d) {
  Hasher hasher;
  hasher.Add(static_cast<uint64_t>(d.num_entities()));
  hasher.Add(static_cast<uint64_t>(d.num_relations()));
  HashStore(d.train, &hasher);
  HashStore(d.valid, &hasher);
  return HashStore(d.test, &hasher);
}

// Hashes every entry of `cache` under the sorted, deduplicated `keys`, in
// slot order.
uint64_t HashCache(const TripletCache& cache, std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  Hasher hasher;
  for (uint64_t key : keys) {
    const std::vector<EntityId>* entry = cache.Find(key);
    hasher.Add(key);
    hasher.Add(entry == nullptr ? ~0ULL : entry->size());
    if (entry == nullptr) continue;
    for (EntityId e : *entry) hasher.Add(static_cast<uint64_t>(e));
  }
  return hasher.value();
}

constexpr int32_t kEntities = 150;
constexpr EntityId kHub = 3;

Dataset GoldenDataset() {
  SyntheticKgConfig c;
  c.num_entities = kEntities;
  c.num_relations = 4;
  c.num_triples = 1200;
  c.seed = 5;
  Dataset d = GenerateSyntheticKg(c);
  // Hub key (kHub, 0): every tail but the last four is true, so a tail
  // refresh of this key redraws ten times and still lands on a known
  // tail with probability (146/150)^11 — true admissions happen.
  for (EntityId t = 0; t < kEntities - 4; ++t) d.train.Add({kHub, 0, t});
  return d;
}

struct CacheGolden {
  CacheUpdateStrategy strategy;
  bool filter;
  uint64_t head_hash;
  uint64_t tail_hash;
  int64_t changed;
  int64_t true_admissions;
};

// Recorded before the allocation-free refresh rewrite; see the file
// comment to re-record.
constexpr CacheGolden kCacheGoldens[] = {
    {CacheUpdateStrategy::kImportanceSampling, true, 0xbae93e35135ffa45ULL,
     0x32ead3bb0fd08edcULL, 8821, 5286},
    {CacheUpdateStrategy::kImportanceSampling, false, 0xb3e6937cb0799f8aULL,
     0x188923eb3b0e8739ULL, 7580, 0},
    {CacheUpdateStrategy::kTop, true, 0xaa1cb9d453ddb234ULL,
     0xcae96a08cdb0c76eULL, 6252, 4875},
    {CacheUpdateStrategy::kTop, false, 0xd64df3e8763ea07cULL,
     0x90b0eac2f554e4d3ULL, 4444, 0},
    {CacheUpdateStrategy::kUniform, true, 0x13fbf061fdd87113ULL,
     0x0fe6fdd643a393daULL, 9695, 5055},
    {CacheUpdateStrategy::kUniform, false, 0xa3203a46b68116baULL,
     0x260e729f7e9e78edULL, 9418, 0},
};

TEST(RefreshGoldenTest, CachesMatchRecordedGoldens) {
  simd::ScopedForcePath force(simd::Path::kScalar);
  const bool print = GetEnvBool("NSC_PRINT_GOLDENS", false);

  const Dataset data = GoldenDataset();
  const KgIndex index(data.train);
  std::vector<uint64_t> head_keys;
  std::vector<uint64_t> tail_keys;
  for (const Triple& x : data.train) {
    head_keys.push_back(PackRt(x.r, x.t));
    tail_keys.push_back(PackHr(x.h, x.r));
  }

  for (const CacheGolden& golden : kCacheGoldens) {
    const std::string name = CacheUpdateStrategyName(golden.strategy) +
                             (golden.filter ? "+filter" : "");
    SCOPED_TRACE(name);
    TrainConfig config;
    config.dim = 12;
    config.learning_rate = 0.05;
    config.margin = 2.0;
    config.batch_size = 64;
    config.num_threads = 1;
    config.seed = 31;
    KgeModel model(data.num_entities(), data.num_relations(), config.dim,
                   MakeScoringFunction("transe"));
    Rng init(29);
    model.InitXavier(&init);
    NSCachingConfig nsc;
    nsc.n1 = 12;
    nsc.n2 = 16;
    nsc.update_strategy = golden.strategy;
    nsc.filter_true_triples = golden.filter;
    NSCachingSampler sampler(&model, &index, nsc);
    Trainer trainer(&model, &data.train, &sampler, config);
    for (int epoch = 0; epoch < 2; ++epoch) trainer.RunEpoch();

    const uint64_t head = HashCache(sampler.head_cache(), head_keys);
    const uint64_t tail = HashCache(sampler.tail_cache(), tail_keys);
    const CacheStats stats = sampler.stats();
    if (print) {
      std::printf("    {CacheUpdateStrategy::%s, %s, 0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL, %" PRId64 ", %" PRId64 "},\n",
                  golden.strategy == CacheUpdateStrategy::kImportanceSampling
                      ? "kImportanceSampling"
                      : golden.strategy == CacheUpdateStrategy::kTop
                            ? "kTop"
                            : "kUniform",
                  golden.filter ? "true" : "false", head, tail,
                  stats.changed_elements, stats.true_admissions);
      continue;
    }
    EXPECT_EQ(head, golden.head_hash);
    EXPECT_EQ(tail, golden.tail_hash);
    EXPECT_EQ(stats.changed_elements, golden.changed);
    EXPECT_EQ(stats.true_admissions, golden.true_admissions);
    if (golden.filter) {
      EXPECT_GT(stats.true_admissions, 0) << "the hub key must defeat the "
                                             "filter's redraw budget";
    } else {
      EXPECT_EQ(stats.true_admissions, 0);
    }
  }
}

// The time-to-MRR graph of perfbench (driver.cc MakeInputs).
SyntheticKgConfig PerfbenchGraphConfig() {
  SyntheticKgConfig kg;
  kg.name = "perfbench";
  kg.num_entities = 2000;
  kg.num_relations = 10;
  kg.num_triples = 20000;
  kg.seed = 7;
  return kg;
}

constexpr uint64_t kPerfbenchGraphHash = 0xeb13eabea6c45ffcULL;
constexpr uint64_t kSampledGraphHash = 0xf2c99dd4516e6143ULL;

TEST(RefreshGoldenTest, SyntheticGraphsMatchRecordedGoldens) {
  const bool print = GetEnvBool("NSC_PRINT_GOLDENS", false);
  const uint64_t perfbench =
      HashDataset(GenerateSyntheticKg(PerfbenchGraphConfig()));
  // complete_neighborhoods = false draws each neighbourhood through
  // GumbelTopK, so this graph pins the selection order too.
  SyntheticKgConfig sampled = PerfbenchGraphConfig();
  sampled.num_triples = 4000;
  sampled.complete_neighborhoods = false;
  const uint64_t sampled_hash = HashDataset(GenerateSyntheticKg(sampled));
  if (print) {
    std::printf("constexpr uint64_t kPerfbenchGraphHash = 0x%016" PRIx64
                "ULL;\nconstexpr uint64_t kSampledGraphHash = 0x%016" PRIx64
                "ULL;\n",
                perfbench, sampled_hash);
    return;
  }
  EXPECT_EQ(perfbench, kPerfbenchGraphHash);
  EXPECT_EQ(sampled_hash, kSampledGraphHash);
}

}  // namespace
}  // namespace nsc
