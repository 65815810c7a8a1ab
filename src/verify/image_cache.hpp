// LRU cache of fully built trial executables.
//
// Keyed by (original-image fingerprint, config stable_hash); the config's
// canonical key is stored alongside each entry as a collision guard, so a
// 64-bit hash collision degrades to a cache miss -- never to running the
// wrong image. Within one search a given configuration is normally tried
// once (the trial cache dedupes), so whole-image hits come from retries,
// majority-vote rounds and fault-campaign re-evaluations; the per-function
// variant cache underneath (instrument::IncrementalPatcher) carries the
// cross-trial reuse.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "instrument/patch.hpp"
#include "support/hash.hpp"
#include "vm/exec_image.hpp"

namespace fpmix::verify {

class ImageCache {
 public:
  struct Entry {
    std::shared_ptr<const vm::ExecutableImage> exec;
    instrument::InstrumentStats stats;
  };

  explicit ImageCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached entry (refreshing its recency) or nullptr. The
  /// pointer is invalidated by the next insert().
  const Entry* find(std::uint64_t fingerprint, std::uint64_t config_hash,
                    std::string_view canonical_key);

  /// Inserts (or replaces) an entry, evicting the least recently used one
  /// beyond capacity.
  void insert(std::uint64_t fingerprint, std::uint64_t config_hash,
              std::string canonical_key, Entry entry);

  std::size_t size() const { return lru_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Node {
    std::uint64_t mixed_key = 0;
    std::string canonical_key;
    Entry entry;
  };

  static std::uint64_t mix(std::uint64_t fingerprint,
                           std::uint64_t config_hash) {
    return fnv1a64_mix(fnv1a64_mix(kFnv1a64Offset, fingerprint),
                       config_hash);
  }

  std::size_t capacity_;
  std::list<Node> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Node>::iterator> by_key_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Most entries any ImageCache in this process has held at once since the
/// last reset_image_cache_peak() (internally synchronised). Tests use it to
/// bound the images a search's builder keeps alive.
std::size_t image_cache_peak();
void reset_image_cache_peak();

/// Stable fingerprint of an original image (code, data, layout bases and
/// entry): the cache-key half that invalidates every entry when the image
/// itself changes.
std::uint64_t image_fingerprint(const program::Image& image);

}  // namespace fpmix::verify
