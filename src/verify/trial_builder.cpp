#include "verify/trial_builder.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "support/timer.hpp"

namespace fpmix::verify {

namespace {
std::atomic<std::size_t> g_peak{0};
}  // namespace

TrialBuilder::TrialBuilder(const program::Image& original,
                           const config::StructureIndex& index,
                           std::size_t lanes)
    : patcher_(original, index), capacity_(std::max<std::size_t>(1, lanes)) {}

TrialBuilder::Built TrialBuilder::build(const config::PrecisionConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  Built out;
  std::string key = cfg.canonical_key();
  TrialCost& c = out.cost;
  Timer timer;
  const auto hit = std::find_if(
      images_.begin(), images_.end(),
      [&key](const CachedImage& e) { return e.key == key; });
  if (hit != images_.end()) {
    images_.splice(images_.begin(), images_, hit);
    out.exec = hit->exec;
    out.stats = hit->stats;
    c.image_cache_hit = true;
    c.patch_ns = timer.elapsed_ns();
    c.funcs_total = static_cast<std::uint32_t>(hit->exec->segments().size());
    c.funcs_reused = c.funcs_total;
    return out;
  }

  timer.reset();
  instrument::IncrementalPatcher::Build b = patcher_.patch(cfg);
  c.patch_ns = timer.elapsed_ns();
  out.stats = b.stats;
  c.funcs_reused = static_cast<std::uint32_t>(b.funcs_reused);
  c.funcs_total = static_cast<std::uint32_t>(b.funcs_total);

  timer.reset();
  out.exec = patcher_.predecode(std::move(b));
  c.predecode_ns = timer.elapsed_ns();

  images_.push_front(CachedImage{std::move(key), out.exec, out.stats});
  if (images_.size() > capacity_) images_.pop_back();
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (images_.size() > peak &&
         !g_peak.compare_exchange_weak(peak, images_.size(),
                                       std::memory_order_relaxed)) {
  }
  return out;
}

std::size_t image_cache_peak() {
  return g_peak.load(std::memory_order_relaxed);
}

void reset_image_cache_peak() { g_peak.store(0, std::memory_order_relaxed); }

}  // namespace fpmix::verify
