// Per-epoch counters exposed by the NSCaching sampler for the
// exploration/exploitation analysis of the paper:
//   CE  — changed cache elements per update (Figure 8);
//   cache size / touch counts — the §III-B3 space discussion.
// (RR and NZL are computed in analysis/dynamics.h from the trainer's view,
// since they depend on the sampled negatives and loss values.)
#ifndef NSCACHING_CORE_CACHE_STATS_H_
#define NSCACHING_CORE_CACHE_STATS_H_

#include <atomic>
#include <cstdint>

namespace nsc {

/// A snapshot of accumulated cache statistics; reset at epoch boundaries.
///
/// Counter semantics:
///   updates          — entry refreshes (two per Sample() when updates are
///                      enabled: the head entry and the tail entry).
///   changed_elements — sum of CE over refreshes.
///   selections       — negatives drawn *from* the cache. Every Sample()
///                      draws BOTH a head candidate h̄ and a tail candidate
///                      t̄ (step 6 of Algorithm 2) before choosing a side,
///                      so this advances by 2 per positive triple, not 1.
///   true_admissions  — known-true triples admitted into a refresh pool
///                      because the false-negative filter exhausted its
///                      redraw budget (see BuildPool in cache_update.cc). A
///                      nonzero rate means filter_true_triples is being
///                      silently defeated for some keys.
///   topk_tiles / topk_pruned_tiles
///                    — candidate tiles scored by kTop refreshes' fused
///                      top-K sweeps, and how many the bounded heap's
///                      threshold test pruned without heap work. Both 0
///                      under the other update strategies.
struct CacheStats {
  int64_t updates = 0;
  int64_t changed_elements = 0;
  int64_t selections = 0;
  int64_t true_admissions = 0;
  int64_t topk_tiles = 0;
  int64_t topk_pruned_tiles = 0;

  void Reset() { *this = CacheStats(); }

  /// Mean changed elements per refresh (the CE series of Figure 8).
  double MeanChangedElements() const {
    return updates == 0
               ? 0.0
               : static_cast<double>(changed_elements) / static_cast<double>(updates);
  }
};

/// The live counters behind CacheStats. Atomic so Hogwild workers can
/// account concurrently from NSCachingSampler::Sample without locking;
/// readers take a Snapshot() (each field is individually consistent —
/// cross-field exactness only holds while no worker is sampling, which is
/// when the trainer reads them).
class AtomicCacheStats {
 public:
  void AddSelections(int64_t n) {
    selections_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Accounts one entry refresh. The tile counters are nonzero only for
  /// kTop refreshes (CacheRefreshResult::topk_*).
  void AddRefresh(int64_t changed_elements, int64_t true_admissions,
                  int64_t topk_tiles = 0, int64_t topk_pruned_tiles = 0) {
    updates_.fetch_add(1, std::memory_order_relaxed);
    changed_elements_.fetch_add(changed_elements, std::memory_order_relaxed);
    true_admissions_.fetch_add(true_admissions, std::memory_order_relaxed);
    if (topk_tiles != 0) {
      topk_tiles_.fetch_add(topk_tiles, std::memory_order_relaxed);
    }
    if (topk_pruned_tiles != 0) {
      topk_pruned_tiles_.fetch_add(topk_pruned_tiles,
                                   std::memory_order_relaxed);
    }
  }

  void Reset();
  CacheStats Snapshot() const;

 private:
  std::atomic<int64_t> updates_{0};
  std::atomic<int64_t> changed_elements_{0};
  std::atomic<int64_t> selections_{0};
  std::atomic<int64_t> true_admissions_{0};
  std::atomic<int64_t> topk_tiles_{0};
  std::atomic<int64_t> topk_pruned_tiles_{0};
};

}  // namespace nsc

#endif  // NSCACHING_CORE_CACHE_STATS_H_
