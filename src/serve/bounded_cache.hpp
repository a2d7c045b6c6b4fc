// BoundedCache — the serving layer's caches (template decisions, bound
// query shapes): a map from text keys to shared immutable values with a
// constant capacity and a constant key length.
//
// Lookups take a shared lock, so concurrent readers do not serialize;
// stores take it exclusively. Entries are kept oldest first: storing a
// key, new or present, makes its entry the newest, and a store beyond
// the capacity evicts the oldest entry. A key longer than
// kMaxCacheKeyBytes is never stored: an entry holds tens of times its
// key's bytes (a bound shape keeps its query's expression trees and
// identity texts), so the key bound is what bounds the cache's memory.
// Hits, misses, evictions and refused stores are counted here and
// published under "serve/<name>/..." (hits, misses, evictions, oversize,
// and the entries gauge) when counters are on.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/obs/publish.hpp"

namespace mvd {

/// Longest key a BoundedCache stores, in bytes. Request texts run to a few
/// hundred bytes; a key past this is a request served uncached.
inline constexpr std::size_t kMaxCacheKeyBytes = 4096;

/// A cache's counters since construction, and its current size.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t oversize = 0;  // stores refused for their key's length
  std::size_t entries = 0;
};

template <typename V>
class BoundedCache {
 public:
  /// `name` is the metric path segment ("template_cache").
  BoundedCache(std::size_t capacity, std::string name)
      : capacity_(capacity), name_(std::move(name)) {}

  BoundedCache(const BoundedCache&) = delete;
  BoundedCache& operator=(const BoundedCache&) = delete;

  /// The value under `key` if `accept(value)` holds, else null; counts a
  /// hit or a miss.
  template <typename Accept>
  std::shared_ptr<const V> find(const std::string& key,
                                Accept&& accept) const {
    std::shared_ptr<const V> value;
    {
      std::shared_lock<std::shared_mutex> lock(mutex_);
      const auto it = index_.find(key);
      if (it != index_.end() && accept(*it->second.value)) {
        value = it->second.value;
      }
    }
    (value != nullptr ? hits_ : misses_)
        .fetch_add(1, std::memory_order_relaxed);
    publish_cache_lookup(name_, value != nullptr);
    return value;
  }

  std::shared_ptr<const V> find(const std::string& key) const {
    return find(key, [](const V&) { return true; });
  }

  /// Store `value` under `key`, replacing any value there; the entry
  /// becomes the newest. At capacity a new key evicts the oldest entry.
  /// A key longer than kMaxCacheKeyBytes is refused and counted; the cache
  /// does not change.
  void store(std::string key, std::shared_ptr<const V> value) {
    if (key.size() > kMaxCacheKeyBytes) {
      oversize_.fetch_add(1, std::memory_order_relaxed);
      publish_cache_oversize(name_);
      return;
    }
    std::shared_ptr<const V> evicted;  // released after the lock
    std::unique_lock<std::shared_mutex> lock(mutex_);
    const auto [it, inserted] = index_.try_emplace(std::move(key));
    it->second.value = std::move(value);
    if (!inserted) {
      order_.splice(order_.end(), order_, it->second.position);
    } else {
      it->second.position = order_.insert(order_.end(), &it->first);
      if (index_.size() > capacity_) {
        const auto oldest = index_.find(*order_.front());
        evicted = std::move(oldest->second.value);
        order_.pop_front();
        index_.erase(oldest);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    publish_cache_store(name_, evicted != nullptr, index_.size());
  }

  /// Call `f(value)` on every entry, oldest first, under the shared lock.
  template <typename F>
  void for_each(F&& f) const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (const std::string* key : order_) f(*index_.at(*key).value);
  }

  CacheStats stats() const {
    CacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.oversize = oversize_.load(std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> lock(mutex_);
    stats.entries = index_.size();
    return stats;
  }

 private:
  /// Keys in age order point into index_, whose nodes never move.
  using Order = std::list<const std::string*>;
  struct Entry {
    std::shared_ptr<const V> value;
    typename Order::iterator position;
  };

  const std::size_t capacity_;
  const std::string name_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, Entry> index_;
  Order order_;  // oldest first
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> oversize_{0};
};

}  // namespace mvd
