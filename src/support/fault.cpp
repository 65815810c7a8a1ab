#include "support/fault.hpp"

#include <cstdio>
#include <fstream>

#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace fpmix::fault {

namespace {

/// Uniform double in [0, 1) from one SplitMix64 draw.
double unit_draw(SplitMix64* rng) { return rng->next_double(); }

}  // namespace

TrialFaults Injector::for_trial(std::string_view trial_key,
                                std::uint32_t attempt) const {
  // One stable stream per (campaign, trial, attempt): identical decisions
  // no matter which thread evaluates the trial or how often it is retried
  // with the same attempt index.
  std::uint64_t h = fnv1a64(trial_key, seed_ ^ kFnv1a64Offset);
  h = fnv1a64_mix(h, attempt);
  SplitMix64 rng(h);

  TrialFaults out;
  const double v = unit_draw(&rng);
  double edge = rates_.abort;
  if (v < edge) {
    out.vm.kind = VmFault::kAbort;
  } else if (v < (edge += rates_.bitflip)) {
    out.vm.kind = VmFault::kBitFlip;
  } else if (v < (edge += rates_.sentinel)) {
    out.vm.kind = VmFault::kSentinel;
  } else if (v < (edge += rates_.stall)) {
    out.vm.kind = VmFault::kStall;
  }
  if (out.vm.kind != VmFault::kNone) {
    // Early enough that short trial programs usually reach the fault point;
    // a spec that outlives the run is a harmless no-op.
    out.vm.at_retired = 1 + rng.next_below(256);
    out.vm.seed = rng.next_u64();
  }
  out.flip_verdict = unit_draw(&rng) < rates_.flaky;

  // Hard faults: an independent draw (a campaign can combine soft and hard
  // kinds), first match wins among the mutually exclusive process killers.
  const double hv = unit_draw(&rng);
  double hedge = rates_.segv;
  if (hv < hedge) {
    out.hard = HardFault::kSegv;
  } else if (hv < (hedge += rates_.kill)) {
    out.hard = HardFault::kKill;
  } else if (hv < (hedge += rates_.oom)) {
    out.hard = HardFault::kOomStorm;
  } else if (hv < (hedge += rates_.hang)) {
    out.hard = HardFault::kHang;
  } else if (hv < (hedge += rates_.hang_ignore_term)) {
    out.hard = HardFault::kHangIgnoreTerm;
  } else if (hv < (hedge += rates_.trunc_result)) {
    out.hard = HardFault::kTruncResult;
  } else if (hv < (hedge += rates_.corrupt_result)) {
    out.hard = HardFault::kCorruptResult;
  }
  if (out.hard != HardFault::kNone) out.hard_seed = rng.next_u64();
  return out;
}

std::string Injector::fingerprint_tag() const {
  std::uint64_t h = fnv1a64("fault-campaign", seed_);
  for (const double r : rates_.values()) {
    h = fnv1a64_mix(h, static_cast<std::uint64_t>(r * 1e9));
  }
  return hex_digest(h);
}

NetFault NetChaos::for_op(std::uint64_t conn_id,
                          std::uint64_t op_index) const {
  std::uint64_t h = fnv1a64("net-chaos", seed_);
  h = fnv1a64_mix(h, conn_id);
  h = fnv1a64_mix(h, op_index);
  SplitMix64 rng(h);
  const double v = unit_draw(&rng);
  double edge = rates_.reset;
  NetFault kind = NetFault::kNone;
  if (v < edge) {
    kind = NetFault::kConnReset;
  } else if (v < (edge += rates_.stall)) {
    kind = NetFault::kStall;
  } else if (v < (edge += rates_.delay)) {
    kind = NetFault::kDelayFrame;
  } else if (v < (edge += rates_.dup)) {
    kind = NetFault::kDupFrame;
  } else if (v < (edge += rates_.reorder)) {
    kind = NetFault::kReorderFrames;
  }
  // A held first frame (the hello) would never flush; see the header.
  if (op_index == 0 && (kind == NetFault::kDelayFrame ||
                        kind == NetFault::kReorderFrames)) {
    kind = NetFault::kNone;
  }
  return kind;
}

DiskFault DiskChaos::for_op(std::string_view file_key,
                            std::uint64_t op_index) const {
  std::uint64_t h = fnv1a64("disk-chaos", seed_);
  h = fnv1a64(file_key, h);
  h = fnv1a64_mix(h, op_index);
  SplitMix64 rng(h);
  const double v = unit_draw(&rng);
  double edge = rates_.short_write;
  DiskFault kind = DiskFault::kNone;
  if (v < edge) {
    kind = DiskFault::kShortWrite;
  } else if (v < (edge += rates_.torn_record)) {
    kind = DiskFault::kTornRecord;
  } else if (v < (edge += rates_.fsync_fail)) {
    kind = DiskFault::kFsyncFail;
  } else if (v < (edge += rates_.enospc)) {
    kind = DiskFault::kEnospc;
  } else if (v < (edge += rates_.unreadable)) {
    kind = DiskFault::kUnreadable;
  }
  // Reload (op 0) can only fail by being unreadable; write kinds there would
  // be meaningless. Symmetrically, an append cannot be "unreadable".
  if (op_index == 0) {
    if (kind != DiskFault::kUnreadable) kind = DiskFault::kNone;
  } else if (kind == DiskFault::kUnreadable) {
    kind = DiskFault::kNone;
  }
  return kind;
}

bool sabotage_journal(const std::string& path, JournalFault kind,
                      std::uint64_t seed) {
  std::vector<std::string> lines = Journal::read_lines(path);
  if (lines.empty()) return false;
  SplitMix64 rng(seed);

  bool torn_tail = false;
  std::string torn;
  switch (kind) {
    case JournalFault::kTruncateTail: {
      // A crash mid-append: the final line survives only up to a random
      // byte and has no terminating newline.
      torn = lines.back();
      lines.pop_back();
      if (torn.size() > 1) torn.resize(1 + rng.next_below(torn.size() - 1));
      torn_tail = true;
      break;
    }
    case JournalFault::kCorruptInterior: {
      const std::size_t i = rng.next_below(lines.size());
      std::string& l = lines[i];
      if (l.empty()) return false;
      const std::size_t at = rng.next_below(l.size());
      // Flip a low bit so the line stays newline-free printable-ish text;
      // never produces '\n' from a printable byte.
      l[at] = static_cast<char>((l[at] ^ 0x1) | 0x20);
      break;
    }
    case JournalFault::kDuplicateLine: {
      const std::size_t i = rng.next_below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i + 1),
                   lines[i]);
      break;
    }
    case JournalFault::kGarbageLine: {
      const std::size_t i = rng.next_below(lines.size() + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                   strformat("@@journal-noise %llx not json",
                             static_cast<unsigned long long>(rng.next_u64())));
      break;
    }
  }

  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  if (!f) return false;
  for (const std::string& l : lines) f << l << '\n';
  if (torn_tail) f << torn;
  return static_cast<bool>(f);
}

}  // namespace fpmix::fault
