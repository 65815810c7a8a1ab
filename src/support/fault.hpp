// Deterministic, seeded fault injection for robustness testing.
//
// The search harness must survive hundreds of trapping, diverging and
// non-terminating trial configurations without losing the run -- a crashed
// trial is ordinary data (the 0x7FF4DEAD sentinel is *designed* to make
// untreated escapes fail loudly). This module manufactures those failures
// on demand so tests can drive seeded fault campaigns through full searches
// and assert the harness absorbs every one of them:
//
//  - VM faults, fired at an exact retired-instruction count inside
//    vm::Machine's supervision loop: flip a bit in an FP slot (silent data
//    corruption), force a replaced-double sentinel escape, abort the trial,
//    or stall it until the wall-clock deadline trips;
//  - verifier flakiness, flipping the verdict of a single evaluation
//    attempt (exercises the search's retry / majority-vote / quarantine
//    policy);
//  - journal sabotage, corrupting / truncating / duplicating lines of an
//    existing journal file (exercises CRC + sequence-number recovery);
//  - *hard* faults, which destroy the evaluating process itself: raise
//    SIGSEGV/SIGKILL in-trial, allocation storms into the rlimit, hangs
//    that force the TERM->KILL escalation, and truncated/corrupted result
//    frames. Only the out-of-process runner (src/runner) survives these;
//    the in-process evaluation path ignores them by design, since firing
//    one there would take down the driver the campaign is meant to harden.
//
// Everything is a pure function of (seed, trial key, attempt): the same
// campaign replays identically across processes and thread schedules.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace fpmix::fault {

/// Machine-level fault kinds, applied by vm::Machine mid-run.
enum class VmFault : std::uint8_t {
  kNone = 0,
  kBitFlip,   // flip one bit of an FP slot (xmm lane or data memory): SDC
  kSentinel,  // write a 0x7FF4DEAD-tagged slot: forced sentinel escape
  kAbort,     // trap immediately: models a crashed trial
  kStall,     // stop retiring instructions: models a hang (needs a deadline)
};

/// One planned machine fault: `kind` fires once the retired-instruction
/// count reaches `at_retired`; `seed` picks the target register/bit.
struct VmFaultSpec {
  VmFault kind = VmFault::kNone;
  std::uint64_t at_retired = 0;
  std::uint64_t seed = 0;
};

/// Process-destroying fault kinds, applied by the sandboxed trial worker
/// (src/runner) around one evaluation. The in-process path ignores them.
enum class HardFault : std::uint8_t {
  kNone = 0,
  kSegv,           // raise SIGSEGV mid-trial: a wild write in a patched image
  kKill,           // raise SIGKILL: models the kernel OOM-killer / operator
  kOomStorm,       // allocate until the rlimit refuses (kResource) or a cap,
                   // then SIGKILL: memory blowup either way
  kHang,           // stop responding; the supervisor's SIGTERM reaps it
  kHangIgnoreTerm, // as kHang but SIGTERM is ignored: forces KILL escalation
  kTruncResult,    // deliver a truncated result frame, then die
  kCorruptResult,  // deliver a CRC-corrupt result frame, then die
};

/// Fault decisions for one evaluation attempt of one trial.
struct TrialFaults {
  VmFaultSpec vm;
  bool flip_verdict = false;  // verifier flakiness for this attempt
  HardFault hard = HardFault::kNone;  // worker-process fault (runner only)
  std::uint64_t hard_seed = 0;        // picks the storm size / damage byte
};

/// Campaign-level deterministic fault source. for_trial derives every
/// decision from (campaign seed, trial key, attempt index), so a campaign
/// is reproducible and per-trial decisions are independent of evaluation
/// order and thread count. Thread-safe (const, no state).
class Injector {
 public:
  /// Independent per-attempt probabilities of each fault kind. The VM
  /// faults are mutually exclusive (first match on a single draw); flaky
  /// verdict flips are drawn separately.
  struct Rates {
    double abort = 0.0;
    double bitflip = 0.0;
    double sentinel = 0.0;
    double stall = 0.0;  // only meaningful when a trial deadline is set
    double flaky = 0.0;
    // Hard (process-destroying) faults; drawn separately from the VM kinds
    // and mutually exclusive with each other. Only fire under the isolated
    // runner -- the in-process path cannot survive them.
    double segv = 0.0;
    double kill = 0.0;
    double oom = 0.0;
    double hang = 0.0;            // needs a supervisor trial timeout
    double hang_ignore_term = 0.0;
    double trunc_result = 0.0;
    double corrupt_result = 0.0;

    /// The rates in one fixed order, the order every encoding of a
    /// campaign uses (the session handshake, the search fingerprint).
    std::array<double, 12> values() const {
      return {abort, bitflip, sentinel, stall, flaky, segv, kill, oom, hang,
              hang_ignore_term, trunc_result, corrupt_result};
    }
    /// Inverse of values().
    static Rates from_values(const std::array<double, 12>& v) {
      return {v[0], v[1], v[2], v[3], v[4],  v[5],
              v[6], v[7], v[8], v[9], v[10], v[11]};
    }
  };

  Injector(std::uint64_t seed, const Rates& rates)
      : seed_(seed), rates_(rates) {}

  /// Fault decisions for attempt `attempt` of the trial identified by
  /// `trial_key` (the config digest the search journals).
  TrialFaults for_trial(std::string_view trial_key,
                        std::uint32_t attempt) const;

  /// Tag folded into the search fingerprint so journals written under a
  /// fault campaign never contaminate fault-free runs.
  std::string fingerprint_tag() const;

  std::uint64_t seed() const { return seed_; }
  /// The campaign's rate table (the network scheduler ships it to remote
  /// runners in the session handshake, so both sides draw identically).
  const Rates& rates() const { return rates_; }

 private:
  std::uint64_t seed_;
  Rates rates_;
};

// ---- Network chaos ---------------------------------------------------------

/// Transport-level fault kinds, injected at the net::Socket send path (the
/// frame boundary: every send_all call carries exactly one protocol frame).
/// All of them are *detected* failures by construction -- a reset kills the
/// session, a duplicated frame is a stale ticket, a reordered frame is an
/// out-of-order (but individually CRC-intact) message -- so a chaos campaign
/// can prove the fleet heals around them without ever producing a wrong
/// verdict.
enum class NetFault : std::uint8_t {
  kNone = 0,
  kConnReset,      // close the socket mid-stream: peer sees EOF/reset
  kStall,          // sleep before sending: a stalled link / partition window
  kDelayFrame,     // hold this frame; it flushes before the next send
  kDupFrame,       // send this frame twice: duplicate delivery
  kReorderFrames,  // hold this frame; it flushes *after* the next send
};

/// Deterministic, seeded source of transport faults. Like Injector, every
/// decision is a pure function -- here of (campaign seed, connection id,
/// per-connection op index) -- so a campaign replays identically for a given
/// connection history. Install process-wide with net::set_socket_chaos; the
/// runner daemons are forked before installation and stay chaos-free, so
/// faults land exactly on the scheduler's half of every session.
class NetChaos {
 public:
  /// Independent probability of each fault kind per send op (mutually
  /// exclusive, first match on a single draw).
  struct Rates {
    double reset = 0.0;
    double stall = 0.0;
    double delay = 0.0;
    double dup = 0.0;
    double reorder = 0.0;
    /// Sleep applied by kStall, in milliseconds.
    std::uint64_t stall_ms = 20;
  };

  NetChaos(std::uint64_t seed, const Rates& rates)
      : seed_(seed), rates_(rates) {}

  /// The fault to apply to send op `op_index` of connection `conn_id`.
  /// Hold kinds (delay/reorder) are suppressed on a connection's first op:
  /// a held hello frame would never flush (nothing follows it until the
  /// handshake completes), turning a chaos draw into a silent hang instead
  /// of a detectable fault.
  NetFault for_op(std::uint64_t conn_id, std::uint64_t op_index) const;

  std::uint64_t stall_ms() const { return rates_.stall_ms; }
  std::uint64_t seed() const { return seed_; }
  const Rates& rates() const { return rates_; }

 private:
  std::uint64_t seed_;
  Rates rates_;
};

// ---- Disk chaos ------------------------------------------------------------

/// Storage-level fault kinds, injected at the daemon shard store's file
/// operations (src/net/shard_store). Each models a real failure the durable
/// state layer must absorb: torn writes are what crash-consistency healing
/// exists for, fsync failures silently weaken durability, ENOSPC must
/// degrade the daemon to in-memory shards rather than kill the session, and
/// an unreadable file on reload must cost only that shard.
enum class DiskFault : std::uint8_t {
  kNone = 0,
  kShortWrite,   // persist only a prefix of the record, no newline: torn tail
  kTornRecord,   // persist the whole record but lose the newline: torn tail
  kFsyncFail,    // the append lands in the page cache but fsync is "lost"
  kEnospc,       // the write fails outright: device full / quota exceeded
  kUnreadable,   // the shard file cannot be opened on reload (EIO signature)
};

/// Deterministic, seeded source of disk faults. Every decision is a pure
/// function of (campaign seed, shard file key, per-file op index) -- the
/// reload is op 0, appends count up from 1 -- so a campaign replays
/// identically for a given shard history regardless of session interleaving.
class DiskChaos {
 public:
  /// Independent probability of each fault kind per file op (mutually
  /// exclusive, first match on a single draw). kUnreadable is only
  /// consulted at reload (op 0); the write kinds only at append ops.
  struct Rates {
    double short_write = 0.0;
    double torn_record = 0.0;
    double fsync_fail = 0.0;
    double enospc = 0.0;
    double unreadable = 0.0;
  };

  DiskChaos(std::uint64_t seed, const Rates& rates)
      : seed_(seed), rates_(rates) {}

  /// The fault to apply to op `op_index` of the shard file `file_key`.
  DiskFault for_op(std::string_view file_key, std::uint64_t op_index) const;

  std::uint64_t seed() const { return seed_; }
  const Rates& rates() const { return rates_; }

 private:
  std::uint64_t seed_;
  Rates rates_;
};

/// Journal sabotage kinds (applied to a file between runs).
enum class JournalFault : std::uint8_t {
  kTruncateTail,     // cut the final line mid-write (crash signature)
  kCorruptInterior,  // flip one byte of a random interior line
  kDuplicateLine,    // replay a random line immediately after itself
  kGarbageLine,      // splice a non-JSON line at a random position
};

/// Deterministically damages the journal at `path`. Returns false when the
/// file is missing or too short to damage in the requested way.
bool sabotage_journal(const std::string& path, JournalFault kind,
                      std::uint64_t seed);

}  // namespace fpmix::fault
