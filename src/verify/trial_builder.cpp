#include "verify/trial_builder.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "support/error.hpp"
#include "support/timer.hpp"

namespace fpmix::verify {

namespace {
std::atomic<std::size_t> g_peak{0};
}  // namespace

TrialBuilder::TrialBuilder(const program::Image& original,
                           const config::StructureIndex& index,
                           std::size_t lanes)
    : prog_(std::make_shared<const program::Program>(program::lift(original))),
      index_(index),
      lane_keys_(std::max<std::size_t>(1, lanes)) {
  prog_->validate();
  FPMIX_CHECK(index_.funcs().size() == prog_->functions.size());
  variants_.resize(prog_->functions.size());
  const config::PrecisionConfig none;
  default_sigs_.resize(prog_->functions.size());
  for (std::size_t f = 0; f < default_sigs_.size(); ++f) {
    try {
      default_sigs_[f] = instrument::precision_signature(
          index_, none, f, prog_->functions[f]);
    } catch (const ProgramError&) {
      // Stale: signatures() resolves it in full, so build() throws where
      // instrument_image() would.
    }
  }
}

std::vector<std::string> TrialBuilder::signatures(
    const config::PrecisionConfig& cfg) const {
  const std::vector<bool> reached = cfg.reached_funcs(index_);
  std::vector<std::string> sigs(prog_->functions.size());
  for (std::size_t f = 0; f < sigs.size(); ++f) {
    sigs[f] = reached[f] || !default_sigs_[f]
                  ? instrument::precision_signature(index_, cfg, f,
                                                    prog_->functions[f])
                  : *default_sigs_[f];
  }
  return sigs;
}

std::list<TrialBuilder::CachedImage> TrialBuilder::touch(
    std::list<CachedImage>::iterator e, std::size_t lane) {
  images_.splice(images_.begin(), images_, e);
  lane_keys_[lane] = e->key;
  // Evict least recently used first, but never another lane's own image:
  // at most lanes - 1 of those exist besides `e`, so one entry is free.
  std::list<CachedImage> evicted;
  while (images_.size() > lane_keys_.size()) {
    auto victim = std::prev(images_.end());
    while (std::find(lane_keys_.begin(), lane_keys_.end(), victim->key) !=
           lane_keys_.end()) {
      --victim;
    }
    evicted.splice(evicted.end(), images_, victim);
  }
  return evicted;
}

TrialBuilder::Built TrialBuilder::build(const config::PrecisionConfig& cfg,
                                        std::size_t lane) {
  lane %= lane_keys_.size();
  Built out;
  std::string key = cfg.canonical_key();
  TrialCost& c = out.cost;
  Timer timer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto hit = std::find_if(
        images_.begin(), images_.end(),
        [&key](const CachedImage& e) { return e.key == key; });
    if (hit != images_.end()) {
      touch(hit, lane);  // a hit never grows the cache, so evicts nothing
      out.exec = hit->exec;
      out.stats = hit->stats;
      c.image_cache_hit = true;
      c.patch_ns = timer.elapsed_ns();
      c.funcs_total =
          static_cast<std::uint32_t>(hit->exec->segments().size());
      c.funcs_reused = c.funcs_total;
      return out;
    }
  }

  // Patch: instrument + lay out (and predecode, timed apart) only the
  // functions whose signature is new, and reuse cached variants elsewhere.
  // Only the lookups and inserts are locked.
  timer.reset();
  const std::size_t n = prog_->functions.size();
  std::vector<std::string> sigs = signatures(cfg);
  std::vector<std::shared_ptr<const FuncVariant>> used(n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t f = 0; f < n; ++f) {
      const auto it = variants_[f].find(sigs[f]);
      if (it != variants_[f].end()) used[f] = it->second;
    }
  }
  std::uint64_t segment_ns = 0;
  std::vector<std::size_t> fresh;
  for (std::size_t f = 0; f < n; ++f) {
    if (used[f] != nullptr) {
      ++c.funcs_reused;
      continue;
    }
    auto v = std::make_shared<FuncVariant>();
    v->layout = program::layout_function(
        instrument::instrument_function(prog_->functions[f], sigs[f],
                                        &v->stats));
    Timer segment_timer;
    v->segment = vm::CodeSegment::build(v->layout);
    segment_ns += segment_timer.elapsed_ns();
    used[f] = std::move(v);
    fresh.push_back(f);
  }
  if (!fresh.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::size_t f : fresh) {
      auto& cache = variants_[f];
      if (cache.size() >= kMaxVariantsPerFunc && !cache.count(sigs[f])) {
        cache.clear();
      }
      used[f] = cache.emplace(std::move(sigs[f]), used[f]).first->second;
    }
  }
  // Each variant owns its layout and segment; the image shares both.
  std::vector<std::shared_ptr<const program::FuncLayout>> layouts(n);
  std::vector<std::shared_ptr<const vm::CodeSegment>> segments(n);
  for (std::size_t f = 0; f < n; ++f) {
    layouts[f] = std::shared_ptr<const program::FuncLayout>(
        used[f], &used[f]->layout);
    segments[f] = used[f]->segment;
    out.stats.add(used[f]->stats);
  }
  c.funcs_total = static_cast<std::uint32_t>(n);
  c.patch_ns = timer.elapsed_ns() - segment_ns;

  // Predecode: the fresh variants' segments (above), then the table.
  timer.reset();
  out.exec = vm::ExecutableImage::build_spliced(prog_, std::move(layouts),
                                                std::move(segments));
  c.predecode_ns = timer.elapsed_ns() + segment_ns;

  std::list<CachedImage> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto e = std::find_if(
        images_.begin(), images_.end(),
        [&key](const CachedImage& i) { return i.key == key; });
    if (e == images_.end()) {
      e = images_.insert(images_.begin(),
                         CachedImage{std::move(key), out.exec, out.stats});
    } else {
      out.exec = e->exec;  // another lane inserted it first
    }
    evicted = touch(e, lane);
    std::size_t peak = g_peak.load(std::memory_order_relaxed);
    while (images_.size() > peak &&
           !g_peak.compare_exchange_weak(peak, images_.size(),
                                         std::memory_order_relaxed)) {
    }
  }
  // Tearing down the evicted image (and whatever only it still held) is
  // patch work, done outside the lock.
  timer.reset();
  evicted.clear();
  c.patch_ns += timer.elapsed_ns();
  return out;
}

std::size_t image_cache_peak() {
  return g_peak.load(std::memory_order_relaxed);
}

void reset_image_cache_peak() { g_peak.store(0, std::memory_order_relaxed); }

}  // namespace fpmix::verify
