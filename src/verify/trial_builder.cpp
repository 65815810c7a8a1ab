#include "verify/trial_builder.hpp"

#include <algorithm>
#include <utility>

#include "support/hash.hpp"
#include "support/timer.hpp"

namespace fpmix::verify {

TrialBuilder::TrialBuilder(const program::Image& original,
                           const config::StructureIndex& index,
                           std::size_t lanes)
    : patcher_(original, index),
      cache_(std::max<std::size_t>(1, lanes)),
      fingerprint_(image_fingerprint(original)) {}

TrialBuilder::Built TrialBuilder::build(const config::PrecisionConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  Built out;
  const std::string key = cfg.canonical_key();
  const std::uint64_t hash = fnv1a64(key);

  TrialCost& c = out.cost;
  Timer timer;
  if (const ImageCache::Entry* hit = cache_.find(fingerprint_, hash, key)) {
    out.exec = hit->exec;
    out.stats = hit->stats;
    c.image_cache_hit = true;
    c.patch_ns = timer.elapsed_ns();
    c.funcs_total = static_cast<std::uint32_t>(hit->exec->segments().size());
    c.funcs_reused = c.funcs_total;
    if (have_cold_) {
      c.patch_saved_ns =
          cold_patch_ns_ > c.patch_ns ? cold_patch_ns_ - c.patch_ns : 0;
      c.predecode_saved_ns = cold_predecode_ns_;
    }
  } else {
    timer.reset();
    instrument::IncrementalPatcher::Build b = patcher_.patch(cfg);
    c.patch_ns = timer.elapsed_ns();
    out.stats = b.stats;
    c.funcs_reused = static_cast<std::uint32_t>(b.funcs_reused);
    c.funcs_total = static_cast<std::uint32_t>(b.funcs_total);

    timer.reset();
    out.exec = patcher_.predecode(std::move(b));
    c.predecode_ns = timer.elapsed_ns();

    if (!have_cold_) {
      have_cold_ = true;
      cold_patch_ns_ = c.patch_ns;
      cold_predecode_ns_ = c.predecode_ns;
    } else {
      c.patch_saved_ns =
          cold_patch_ns_ > c.patch_ns ? cold_patch_ns_ - c.patch_ns : 0;
      c.predecode_saved_ns = cold_predecode_ns_ > c.predecode_ns
                                 ? cold_predecode_ns_ - c.predecode_ns
                                 : 0;
    }
    cache_.insert(fingerprint_, hash, key,
                  ImageCache::Entry{out.exec, out.stats});
  }

  totals_.image_cache_hits = cache_.hits();
  totals_.image_cache_misses = cache_.misses();
  totals_.variant_hits = patcher_.variant_hits();
  totals_.variant_misses = patcher_.variant_misses();
  totals_.patch_saved_ns += c.patch_saved_ns;
  totals_.predecode_saved_ns += c.predecode_saved_ns;
  totals_.funcs_reused += c.funcs_reused;
  totals_.funcs_patched += c.funcs_total - c.funcs_reused;
  return out;
}

TrialBuilder::Stats TrialBuilder::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

}  // namespace fpmix::verify
