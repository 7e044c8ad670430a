// Heap-allocation count of the NSCaching hot path. This binary replaces the
// global operator new/delete with counting versions; once a thread has
// warmed its per-thread buffers, a cache refresh and a Sample() on keys
// that already exist must allocate nothing, for every update strategy,
// with the false-negative filter on and off, on a SIMD scorer (TransE) and
// on one that takes the generic pointer-array scoring path (TransH).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "core/cache_update.h"
#include "core/nscaching_sampler.h"
#include "kg/kg_index.h"

namespace {

std::atomic<long> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nsc {
namespace {

constexpr int32_t kEntities = 300;
constexpr int kN1 = 20;

long Allocations() { return g_allocations.load(std::memory_order_relaxed); }

// A sparse graph plus one hub (head 0, relation 0) whose tail list covers
// most entities, so the filtered refresh exercises its redraw loop.
TripleStore MakeStore() {
  TripleStore store(kEntities, 3);
  for (EntityId h = 0; h < 40; ++h) {
    store.Add({h, 1, static_cast<EntityId>((7 * h + 3) % kEntities)});
    store.Add({h, 2, static_cast<EntityId>((11 * h + 5) % kEntities)});
  }
  for (EntityId t = 0; t < kEntities - 10; ++t) store.Add({0, 0, t});
  return store;
}

KgeModel MakeModel(const std::string& scorer) {
  KgeModel model(kEntities, 3, 16, MakeScoringFunction(scorer));
  Rng rng(1);
  model.InitXavier(&rng);
  return model;
}

class RefreshAllocTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RefreshAllocTest, RefreshAllocatesNothingAfterWarmUp) {
  const KgeModel model = MakeModel(GetParam());
  const TripleStore store = MakeStore();
  const KgIndex index(store);
  const Triple keys[] = {{0, 0, 4}, {3, 1, 24}, {5, 2, 60}, {9, 1, 66}};
  for (CacheUpdateStrategy strategy :
       {CacheUpdateStrategy::kImportanceSampling, CacheUpdateStrategy::kUniform,
        CacheUpdateStrategy::kTop}) {
    for (const bool filter : {true, false}) {
      SCOPED_TRACE(CacheUpdateStrategyName(strategy) +
                   (filter ? "+filter" : ""));
      const CacheUpdater updater(&model, strategy, 25,
                                 filter ? &index : nullptr);
      std::vector<std::vector<EntityId>> heads(std::size(keys));
      std::vector<std::vector<EntityId>> tails(std::size(keys));
      for (size_t i = 0; i < std::size(keys); ++i) {
        for (int j = 0; j < kN1; ++j) {
          heads[i].push_back(static_cast<EntityId>((13 * i + 3 * j) % 100));
          tails[i].push_back(static_cast<EntityId>((17 * i + 5 * j) % 100));
        }
      }
      Rng rng(7);
      const auto refresh_all = [&]() {
        for (size_t i = 0; i < std::size(keys); ++i) {
          const Triple& x = keys[i];
          updater.UpdateHeadEntry(&heads[i], x.r, x.t, &rng);
          updater.UpdateTailEntry(&tails[i], x.h, x.r, &rng);
        }
      };
      refresh_all();  // Warm-up: the per-thread buffers grow here.
      const long before = Allocations();
      for (int round = 0; round < 20; ++round) refresh_all();
      EXPECT_EQ(Allocations() - before, 0);
    }
  }
}

TEST_P(RefreshAllocTest, SampleOnExistingKeysAllocatesNothing) {
  KgeModel model = MakeModel(GetParam());
  const TripleStore store = MakeStore();
  const KgIndex index(store);
  for (const size_t max_cache_entries : {size_t{0}, size_t{1000}}) {
    SCOPED_TRACE("max_cache_entries=" + std::to_string(max_cache_entries));
    NSCachingConfig config;
    config.n1 = kN1;
    config.n2 = 25;
    config.max_cache_entries = max_cache_entries;
    NSCachingSampler sampler(&model, &index, config);
    Rng rng(11);
    for (const Triple& x : store) sampler.Sample(x, &rng);  // Creates keys.
    const long before = Allocations();
    for (int round = 0; round < 3; ++round) {
      for (const Triple& x : store) sampler.Sample(x, &rng);
    }
    EXPECT_EQ(Allocations() - before, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Scorers, RefreshAllocTest,
                         ::testing::Values("transe", "transh"));

}  // namespace
}  // namespace nsc
