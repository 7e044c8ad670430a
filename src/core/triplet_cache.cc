#include "core/triplet_cache.h"

#include "util/logging.h"

namespace nsc {

TripletCache::TripletCache(int capacity, int32_t num_entities,
                           size_t max_entries, int num_shards)
    : capacity_(capacity),
      num_entities_(num_entities),
      max_entries_(max_entries) {
  CHECK_GT(capacity, 0);
  CHECK_GT(num_entities, 0);
  CHECK_GT(num_shards, 0);
  shard_max_entries_ =
      max_entries == 0
          ? 0
          : (max_entries + static_cast<size_t>(num_shards) - 1) /
                static_cast<size_t>(num_shards);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TripletCache::Shard& TripletCache::ShardFor(uint64_t key) const {
  if (shards_.size() == 1) return *shards_[0];
  // splitmix64 finalizer: cache keys are packed id pairs whose low bits
  // carry little entropy, so mix before striping.
  uint64_t k = key;
  k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ULL;
  k = (k ^ (k >> 27)) * 0x94D049BB133111EBULL;
  k ^= k >> 31;
  return *shards_[k % shards_.size()];
}

void TripletCache::Touch(Shard* shard, Entry* entry) {
  if (shard_max_entries_ == 0) return;
  // Relink the key's node at the front: no allocation, and lru_pos stays
  // valid.
  shard->lru.splice(shard->lru.begin(), shard->lru, entry->lru_pos);
}

std::vector<EntityId>* TripletCache::GetOrInitLocked(Shard* shard,
                                                     uint64_t key, Rng* rng) {
  auto it = shard->entries.find(key);
  if (it != shard->entries.end()) {
    Touch(shard, &it->second);
    return &it->second.candidates;
  }

  if (shard_max_entries_ > 0 && shard->entries.size() >= shard_max_entries_) {
    // Evict the least-recently-touched key to stay within the bound.
    const uint64_t victim = shard->lru.back();
    shard->lru.pop_back();
    shard->entries.erase(victim);
    ++shard->evictions;
  }

  Entry entry;
  entry.candidates.resize(capacity_);
  for (int i = 0; i < capacity_; ++i) {
    entry.candidates[i] = static_cast<EntityId>(
        rng->UniformInt(static_cast<uint64_t>(num_entities_)));
  }
  if (shard_max_entries_ > 0) {
    shard->lru.push_front(key);
    entry.lru_pos = shard->lru.begin();
  }
  return &shard->entries.emplace(key, std::move(entry)).first->second.candidates;
}

TripletCache::LockedEntry::LockedEntry(TripletCache* cache, Shard* shard,
                                       uint64_t key, Rng* rng)
    : mu_(&shard->mu) {
  shard->mu.Lock();
  candidates_ = cache->GetOrInitLocked(shard, key, rng);
}

// The shard is chosen dynamically from the key, which is the one hop the
// static analysis cannot express — the returned LockedEntry carries the
// capability out, and callers re-enter the analysis via AssertHeld().
// Everything this function delegates to (the LockedEntry constructor and
// GetOrInitLocked) is fully analyzed.
TripletCache::LockedEntry TripletCache::Acquire(uint64_t key, Rng* rng)
    NSC_NO_THREAD_SAFETY_ANALYSIS {
  return LockedEntry(this, &ShardFor(key), key, rng);
}

std::vector<EntityId>& TripletCache::GetOrInit(uint64_t key, Rng* rng) {
  Shard* shard = &ShardFor(key);
  MutexLock lock(&shard->mu);
  return *GetOrInitLocked(shard, key, rng);
}

const std::vector<EntityId>* TripletCache::Find(uint64_t key) const {
  const Shard* shard = &ShardFor(key);
  MutexLock lock(&shard->mu);
  auto it = shard->entries.find(key);
  return it == shard->entries.end() ? nullptr : &it->second.candidates;
}

size_t TripletCache::num_entries() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    MutexLock lock(&shard->mu);
    total += shard->entries.size();
  }
  return total;
}

size_t TripletCache::evictions() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    MutexLock lock(&shard->mu);
    total += shard->evictions;
  }
  return total;
}

void TripletCache::Clear() {
  for (const auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    MutexLock lock(&shard->mu);
    shard->entries.clear();
    shard->lru.clear();
  }
}

}  // namespace nsc
