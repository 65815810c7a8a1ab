#include "verify/image_cache.hpp"

#include <atomic>
#include <utility>

#include "support/hash.hpp"

namespace fpmix::verify {

namespace {
std::atomic<std::size_t> g_peak{0};
}  // namespace

const ImageCache::Entry* ImageCache::find(std::uint64_t fingerprint,
                                          std::uint64_t config_hash,
                                          std::string_view canonical_key) {
  const std::uint64_t key = mix(fingerprint, config_hash);
  auto it = by_key_.find(key);
  if (it == by_key_.end() || it->second->canonical_key != canonical_key) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->entry;
}

void ImageCache::insert(std::uint64_t fingerprint, std::uint64_t config_hash,
                        std::string canonical_key, Entry entry) {
  if (capacity_ == 0) return;
  const std::uint64_t key = mix(fingerprint, config_hash);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    lru_.erase(it->second);
    by_key_.erase(it);
  }
  lru_.push_front(
      Node{key, std::move(canonical_key), std::move(entry)});
  by_key_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().mixed_key);
    lru_.pop_back();
  }
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (lru_.size() > peak &&
         !g_peak.compare_exchange_weak(peak, lru_.size(),
                                       std::memory_order_relaxed)) {
  }
}

std::size_t image_cache_peak() {
  return g_peak.load(std::memory_order_relaxed);
}

void reset_image_cache_peak() { g_peak.store(0, std::memory_order_relaxed); }

std::uint64_t image_fingerprint(const program::Image& image) {
  std::uint64_t h = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(image.code.data()), image.code.size()));
  h = fnv1a64(std::string_view(
                  reinterpret_cast<const char*>(image.data.data()),
                  image.data.size()),
              h);
  h = fnv1a64_mix(h, image.code_base);
  h = fnv1a64_mix(h, image.data_base);
  h = fnv1a64_mix(h, image.bss_base);
  h = fnv1a64_mix(h, image.bss_size);
  h = fnv1a64_mix(h, image.memory_size);
  h = fnv1a64_mix(h, image.entry);
  return h;
}

}  // namespace fpmix::verify
