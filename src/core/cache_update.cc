#include "core/cache_update.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"
#include "util/math.h"
#include "util/topk.h"

namespace nsc {

std::string CacheUpdateStrategyName(CacheUpdateStrategy s) {
  switch (s) {
    case CacheUpdateStrategy::kImportanceSampling:
      return "is";
    case CacheUpdateStrategy::kTop:
      return "top";
    case CacheUpdateStrategy::kUniform:
      return "uniform";
  }
  return "?";
}

namespace {

// A set of entity ids that empties in O(1): an id is in the set when its
// stamp equals the current generation, and Clear() starts a new one.
class StampSet {
 public:
  /// Empties the set and makes room for ids below `n`.
  void Clear(size_t n) {
    if (stamps_.size() < n) stamps_.resize(n, 0);
    if (++generation_ == 0) {  // Wrapped: stale stamps could match again.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      generation_ = 1;
    }
  }
  void Insert(EntityId e) { stamps_[e] = generation_; }
  bool Contains(EntityId e) const { return stamps_[e] == generation_; }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t generation_ = 0;
};

// Reused buffers of one refresh. thread_local because NSCaching refreshes
// run inside the Hogwild workers; after warm-up a refresh allocates
// nothing. The candidate-row gather of the scoring and top-K paths reuses
// KgeModel's own thread-local slab.
struct RefreshScratch {
  std::vector<EntityId> pool;
  std::vector<double> scores;
  std::vector<TopKEntry> topk;  // kTop's retrieval output.
  std::vector<int> picked;      // Survivors' pool positions, in slot order.
  // The key's known-true candidates while the pool is built, then the old
  // entry's ids while the survivors are committed.
  StampSet marks;
};

RefreshScratch& Scratch() {
  static thread_local RefreshScratch scratch;
  return scratch;
}

// Builds s->pool = entry ∪ n2 uniform random entities below num_entities.
// With `known` (the key's known-true candidates, all below id_bound; null
// when filtering is off), a known entry member or draw is replaced by a
// redraw, up to ten times. Returns the number of known-true candidates
// admitted after the redraws ran out.
//
// `known` is marked in the stamp set once per refresh, so each probe is
// one array load, whatever the length of a hub key's list.
int BuildPool(const std::vector<EntityId>& entry,
              const std::vector<EntityId>* known, int n2,
              int32_t num_entities, int32_t id_bound, Rng* rng,
              RefreshScratch* s) {
  std::vector<EntityId>& pool = s->pool;
  const uint64_t n = static_cast<uint64_t>(num_entities);
  pool.assign(entry.begin(), entry.end());
  if (known == nullptr) {
    for (int i = 0; i < n2; ++i) {
      pool.push_back(static_cast<EntityId>(rng->UniformInt(n)));
    }
    return 0;
  }
  StampSet& is_known = s->marks;
  is_known.Clear(static_cast<size_t>(id_bound));
  for (EntityId e : *known) is_known.Insert(e);
  int true_admissions = 0;
  auto draw_fresh = [&]() {
    EntityId e = static_cast<EntityId>(rng->UniformInt(n));
    for (int retry = 0; retry < 10 && is_known.Contains(e); ++retry) {
      e = static_cast<EntityId>(rng->UniformInt(n));
    }
    // Out of retries: the candidate space for this key is dominated by
    // true triples, and a known-true entity enters the pool anyway.
    // Count it so the filter's failure is observable.
    if (is_known.Contains(e)) ++true_admissions;
    return e;
  };
  // Stale entry members that have since been recognised as true triples
  // are evicted in favour of fresh random candidates.
  for (EntityId& e : pool) {
    if (is_known.Contains(e)) e = draw_fresh();
  }
  for (int i = 0; i < n2; ++i) pool.push_back(draw_fresh());
  return true_admissions;
}

// Writes the survivors pool[picked[i]] into the entry's slots in order and
// returns how many of them were not in the old entry (the CE measure of
// Figure 8).
int CommitSurvivors(int32_t id_bound, RefreshScratch* s,
                    std::vector<EntityId>* entry) {
  CHECK_EQ(s->picked.size(), entry->size());
  StampSet& before = s->marks;
  before.Clear(static_cast<size_t>(id_bound));
  for (EntityId e : *entry) before.Insert(e);
  int changed = 0;
  for (size_t i = 0; i < s->picked.size(); ++i) {
    const EntityId e = s->pool[s->picked[i]];
    if (!before.Contains(e)) ++changed;
    (*entry)[i] = e;
  }
  return changed;
}

}  // namespace

CacheRefreshResult CacheUpdater::Refresh(std::vector<EntityId>* entry,
                                         CorruptionSide side, EntityId fixed,
                                         RelationId r, Rng* rng) const {
  RefreshScratch& s = Scratch();
  const bool head = side == CorruptionSide::kHead;
  // Contains({c, r, t}) holds exactly for c in HeadsOf(r, t) (and likewise
  // for tails): both are built from the same deduplicated triple set.
  const std::vector<EntityId>* known = nullptr;
  if (filter_index_ != nullptr) {
    known = head ? &filter_index_->HeadsOf(r, fixed)
                 : &filter_index_->TailsOf(fixed, r);
  }
  const int32_t id_bound = std::max(
      model_->num_entities(),
      filter_index_ != nullptr ? filter_index_->num_entities() : 0);
  CacheRefreshResult result;
  result.true_admissions = BuildPool(*entry, known, n2_,
                                     model_->num_entities(), id_bound, rng, &s);
  const int n1 = static_cast<int>(entry->size());
  switch (strategy_) {
    case CacheUpdateStrategy::kImportanceSampling:
      // Eq. (6): survivors ∝ exp(score), without replacement — realised
      // exactly by the Gumbel-top-k trick on the raw scores.
      if (head) {
        model_->ScoreHeadCandidates(r, fixed, s.pool, &s.scores);
      } else {
        model_->ScoreTailCandidates(fixed, r, s.pool, &s.scores);
      }
      GumbelTopK(s.scores.data(), s.pool.size(), n1, rng, &s.picked);
      break;
    case CacheUpdateStrategy::kUniform:
      // Uniform without replacement: Gumbel-top-k over zero logits. The
      // scores would not be read, so the pool is not scored.
      GumbelTopK(nullptr, s.pool.size(), n1, rng, &s.picked);
      break;
    case CacheUpdateStrategy::kTop: {
      TopKSweepStats stats;
      if (head) {
        model_->TopKHeadCandidates(r, fixed, s.pool, entry->size(), &s.topk,
                                   &stats);
      } else {
        model_->TopKTailCandidates(fixed, r, s.pool, entry->size(), &s.topk,
                                   &stats);
      }
      s.picked.clear();
      for (const TopKEntry& e : s.topk) {
        s.picked.push_back(static_cast<int>(e.index));
      }
      result.topk_tiles = stats.tiles;
      result.topk_pruned_tiles = stats.pruned_tiles;
      break;
    }
  }
  result.changed = CommitSurvivors(id_bound, &s, entry);
  return result;
}

CacheRefreshResult CacheUpdater::UpdateHeadEntry(std::vector<EntityId>* entry,
                                                 RelationId r, EntityId t,
                                                 Rng* rng) const {
  return Refresh(entry, CorruptionSide::kHead, t, r, rng);
}

CacheRefreshResult CacheUpdater::UpdateTailEntry(std::vector<EntityId>* entry,
                                                 EntityId h, RelationId r,
                                                 Rng* rng) const {
  return Refresh(entry, CorruptionSide::kTail, h, r, rng);
}

}  // namespace nsc
