// Whole-search benchmark driver: times search::run_search end to end over
// fixed suites of NAS analogues, the way a user waits for a final precision
// configuration.
//
//   search_bench --workload NAME --seed N --seconds S --trace 0|1
//                --expected FILE --out-dir DIR
//   search_bench --make-expected FILE
//
// Every workload is a closed loop: one search at a time, the next starting
// when the previous one returns. A round searches every program of the
// workload once, in an order drawn from the seed. Each search gets fresh
// per-search state (a copy of the unprofiled StructureIndex, a new journal)
// and the library's default SearchOptions except for the knobs the workload
// names, so a change of default shows up as a measured change.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds (the p50 difference is the tracing overhead), reads the
// counters SearchMetrics returns, then replays a seeded sample of configs
// per program through each layer's public functions, timing each call from
// here. Every replayed config is checked bit for bit against
// verify::evaluate_config. Spans stay in memory and are written to
// DIR/trace-<workload>-seed<N>.json when the run ends.
//
// Every search's final config digest, verdict, candidate count and
// replacement percentages are checked against --expected, which
// --make-expected writes from the simplest path: switch engine, no image
// cache, one thread, in-process.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The full record (host/build fingerprint, seed, engine, per-program
// rows) goes to DIR/results/<workload>-seed<N>-trace<T>.json.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/config.hpp"
#include "instrument/patch.hpp"
#include "kernels/workload.hpp"
#include "program/program.hpp"
#include "search/search.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "verify/evaluate.hpp"
#include "verify/trial_builder.hpp"
#include "vm/exec_image.hpp"
#include "vm/jit/jit.hpp"
#include "vm/machine.hpp"

#ifndef FPMIX_BENCH_BUILD_TYPE
#define FPMIX_BENCH_BUILD_TYPE "unknown"
#endif

using namespace fpmix;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Setup runs kSetupReps times before timing starts and once after every
// round, and its median is reported, so that neither one slow repetition
// nor a burst of host noise decides the set-up metric.
constexpr int kSetupReps = 5;
// Random function-level mixes per program in the traced replay.
constexpr int kReplayMixes = 3;

// ---- Workloads -------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  char cls;
  std::vector<const char*> benches;
  /// num_threads = min(2, nproc); each search writes a fresh journal.
  bool threads;
  /// isolate_trials with two sandboxed workers.
  bool isolate;
};

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      // Lanes contend for the trial builder, memory bandwidth, the BFS batch
      // barrier and the journal write path.
      {"nas-W-threads", 'W',
       {"ep", "cg", "ft", "mg", "bt", "lu", "sp", "amg"}, true, false},
      // The only path through src/runner: fork, pipe frames, delta configs,
      // worker-side caches and the isolated vote loop.
      {"nas-W-isolate", 'W',
       {"ep", "cg", "ft", "mg", "bt", "lu", "sp", "amg"}, false, true},
  };
  return specs;
}

// Two lanes, not one per core: on a host of a few shared cores, lanes on
// every core time the scheduler and the neighbours, not the search.
std::size_t thread_lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(2, hw == 0 ? 1 : hw);
}

std::size_t lanes_of(const WorkloadSpec& w) {
  if (w.isolate) return 2;
  return w.threads ? thread_lanes() : 1;
}

kernels::Workload make_workload(const std::string& bench, char cls) {
  if (bench == "ep") return kernels::make_ep(cls);
  if (bench == "cg") return kernels::make_cg(cls);
  if (bench == "ft") return kernels::make_ft(cls);
  if (bench == "mg") return kernels::make_mg(cls);
  if (bench == "bt") return kernels::make_bt(cls);
  if (bench == "lu") return kernels::make_lu(cls);
  if (bench == "sp") return kernels::make_sp(cls);
  return kernels::make_amg();
}

vm::Engine resolved_engine() {
  const vm::Engine e = search::SearchOptions{}.engine;
  if (e == vm::Engine::kJit && !vm::jit::jit_supported()) {
    return vm::Engine::kMicroOp;
  }
  return e;
}

const char* engine_name(vm::Engine e) {
  switch (e) {
    case vm::Engine::kMicroOp: return "microop";
    case vm::Engine::kSwitch: return "switch";
    case vm::Engine::kJit: return "jit";
  }
  return "unknown";
}

// ---- Expected answers ------------------------------------------------------

struct Answer {
  std::string digest;  // hex stable_hash of the final config
  bool final_passed = false;
  std::size_t candidates = 0;
  std::size_t replaced_static = 0;
  double static_pct = 0.0;
  double dynamic_pct = 0.0;

  bool operator==(const Answer&) const = default;
};

Answer answer_of(const search::SearchResult& r) {
  return Answer{hex_digest(r.final_config.stable_hash()), r.final_passed,
                r.candidates, r.stats.replaced_static, r.stats.static_pct,
                r.stats.dynamic_pct};
}

std::string format_answer(const std::string& program, const Answer& a) {
  return strformat("%s %s %d %zu %zu %.17g %.17g", program.c_str(),
                   a.digest.c_str(), a.final_passed ? 1 : 0, a.candidates,
                   a.replaced_static, a.static_pct, a.dynamic_pct);
}

/// Reads the `program digest passed candidates replaced static% dynamic%`
/// table; '#' starts a comment line. Returns false on a malformed line.
bool load_expected(const std::string& path,
                   std::map<std::string, Answer>* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string name;
    Answer a;
    int passed = 0;
    if (!(in >> name >> a.digest >> passed >> a.candidates >>
          a.replaced_static >> a.static_pct >> a.dynamic_pct)) {
      return false;
    }
    a.final_passed = passed != 0;
    (*out)[name] = a;
  }
  return true;
}

// ---- Tracing ---------------------------------------------------------------

/// In-memory span log (Chrome trace-event "complete" events), written once
/// when the run ends. Disabled, it records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Records [start, end) under `parent` (-1 for a root) and returns the
  /// span's id, or -1 when tracing is off.
  long add(const char* name, const std::string& program,
           Clock::time_point start, Clock::time_point end, long parent) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, program, start, end, parent});
    return static_cast<long>(spans_.size()) - 1;
  }

  /// Moves the end of span `id` (from add) to `end`.
  void finish(long id, Clock::time_point end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
  }

  /// Chrome trace-event JSON: one complete event per span; `extra` is
  /// spliced in as further top-level members.
  std::string to_json(const std::string& extra) const {
    std::string j = "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      j += strformat(
          "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
          "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
          "\"parent\": %ld, \"program\": \"%s\"}}",
          i == 0 ? "" : ",\n", s.name, 1e6 * seconds_between(t0_, s.start),
          1e6 * seconds_between(s.start, s.end), i, s.parent,
          s.program.c_str());
    }
    j += "\n]";
    j += extra;
    j += "}\n";
    return j;
  }

 private:
  struct Span {
    const char* name;
    std::string program;
    Clock::time_point start;
    Clock::time_point end;
    long parent;
  };
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Forwards to the real verifier (same fingerprint, so cached verdicts and
/// worker handshakes are unaffected) and sums the time spent checking.
class TimedVerifier final : public verify::Verifier {
 public:
  explicit TimedVerifier(const verify::Verifier& inner) : inner_(inner) {}

  bool verify(std::span<const double> outputs) const override {
    const Clock::time_point t = Clock::now();
    const bool ok = inner_.verify(outputs);
    ns_.fetch_add(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t)
                          .count()),
                  std::memory_order_relaxed);
    return ok;
  }
  std::string describe() const override { return inner_.describe(); }
  std::string fingerprint() const override { return inner_.fingerprint(); }

  double take_seconds() {
    return 1e-9 * static_cast<double>(
                      ns_.exchange(0, std::memory_order_relaxed));
  }

 private:
  const verify::Verifier& inner_;
  mutable std::atomic<std::uint64_t> ns_{0};
};

// ---- Statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: sorted[n-11],
/// labelled with its nearest-rank percentile. With fewer than eleven samples
/// no percentile qualifies and the maximum is reported instead
/// (`*has_ten_beyond` = false).
double tail(std::vector<double> v, double* percentile, bool* has_ten_beyond) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  *has_ten_beyond = n >= 11;
  if (!*has_ten_beyond) {
    *percentile = 100.0;
    return v.empty() ? 0.0 : v.back();
  }
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return v[n - 11];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Current resident set of this process, from /proc/self/statm.
double current_rss_mb() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Setup -----------------------------------------------------------------

struct Program {
  std::string name;
  program::Image image;
  config::StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
};

struct SetupTimes {
  double total = 0.0;
  double build = 0.0;      // kernels::build_image
  double index = 0.0;      // StructureIndex::build(lift(image))
  double reference = 0.0;  // kernels::make_verifier (the reference run)
};

std::vector<Program> set_up(const WorkloadSpec& spec, Tracer* tracer,
                            SetupTimes* times) {
  std::vector<Program> progs;
  const Clock::time_point t0 = Clock::now();
  for (const char* bench : spec.benches) {
    kernels::Workload w = make_workload(bench, spec.cls);
    Program p;
    p.name = w.name;
    Clock::time_point a = Clock::now();
    p.image = kernels::build_image(w);
    Clock::time_point b = Clock::now();
    times->build += seconds_between(a, b);
    tracer->add("kernels.build_image", p.name, a, b, -1);
    a = Clock::now();
    p.index = config::StructureIndex::build(program::lift(p.image));
    b = Clock::now();
    times->index += seconds_between(a, b);
    tracer->add("config.StructureIndex::build", p.name, a, b, -1);
    a = Clock::now();
    p.verifier = kernels::make_verifier(w, p.image);
    b = Clock::now();
    times->reference += seconds_between(a, b);
    tracer->add("verify.make_verifier", p.name, a, b, -1);
    progs.push_back(std::move(p));
  }
  times->total = seconds_between(t0, Clock::now());
  return progs;
}

// ---- Searching -------------------------------------------------------------

search::SearchOptions options_for(const WorkloadSpec& spec,
                                  const std::string& journal) {
  search::SearchOptions o;
  if (spec.threads) {
    o.num_threads = thread_lanes();
    o.journal_path = journal;
  }
  if (spec.isolate) {
    o.isolate_trials = true;
    o.num_workers = 2;
  }
  return o;
}

/// SearchMetrics summed over one round, plus the driver-side spans.
struct RoundLedger {
  double search_s = 0.0;  // summed run_search spans
  double eval_s = 0.0;
  double staged_s = 0.0;  // patch + predecode + run + verify
  double check_s = 0.0;   // TimedVerifier
  std::size_t trials = 0;
  std::size_t trials_live = 0;
  std::size_t image_hits = 0;
  std::size_t image_misses = 0;
  std::size_t funcs_reused = 0;
  std::size_t funcs_patched = 0;
  std::size_t requests = 0;
  std::size_t delta_requests = 0;
  std::size_t frames = 0;
  std::size_t frame_bytes = 0;
  std::size_t respawns = 0;

  void add(const search::SearchMetrics& m, double span) {
    search_s += span;
    eval_s += m.eval_seconds;
    staged_s += m.patch_seconds + m.predecode_seconds + m.run_seconds +
                m.verify_seconds;
    trials += m.trials_total;
    trials_live += m.trials_live;
    image_hits += m.image_cache_hits;
    image_misses += m.image_cache_misses;
    funcs_reused += m.funcs_reused;
    funcs_patched += m.funcs_patched;
    requests += m.isolated_trials;
    delta_requests += m.delta_requests;
    frames += m.delta_requests + m.full_requests;
    frame_bytes += m.delta_bytes + m.full_bytes;
    respawns += m.worker_respawns;
  }
};

struct Run {
  std::vector<double> round_s;                   // untraced rounds
  std::vector<double> traced_round_s;            // traced rounds
  std::vector<std::vector<double>> program_s;    // per program, all rounds
  std::vector<RoundLedger> ledgers;              // one per traced round
  std::vector<RoundLedger> program_ledgers;      // per program, traced rounds
  std::vector<config::PrecisionConfig> final_configs;  // first search each
  std::vector<bool> have_final;
  std::size_t searches = 0;
  std::size_t failed = 0;
  std::size_t trials = 0;
  double measured_s = 0.0;
  double search_end_rss_mb = 0.0;
};

/// Searches every program once, in an order drawn from `rng`.
void run_round(const WorkloadSpec& spec, const std::vector<Program>& progs,
               const std::map<std::string, Answer>& expected,
               const std::string& journal_dir, bool traced, SplitMix64* rng,
               Tracer* tracer, Run* run) {
  std::vector<std::size_t> order(progs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->next_below(i)]);
  }
  RoundLedger ledger;
  double round_s = 0.0;  // summed search spans
  const Clock::time_point round_start = Clock::now();
  struct SearchSpan {
    std::size_t program;
    Clock::time_point start, end;
  };
  std::vector<SearchSpan> spans;
  for (const std::size_t pi : order) {
    const Program& p = progs[pi];
    const std::string journal =
        spec.threads ? journal_dir + "/" + p.name + ".jsonl" : std::string();
    if (!journal.empty()) std::filesystem::remove(journal);
    config::StructureIndex index = p.index;
    const search::SearchOptions opts = options_for(spec, journal);
    std::unique_ptr<TimedVerifier> timed;
    if (traced) timed = std::make_unique<TimedVerifier>(*p.verifier);
    const verify::Verifier& verifier =
        traced ? static_cast<const verify::Verifier&>(*timed) : *p.verifier;
    ++run->searches;
    const Clock::time_point a = Clock::now();
    Clock::time_point b = a;
    try {
      const search::SearchResult res =
          search::run_search(p.image, &index, verifier, opts);
      b = Clock::now();
      const double secs = seconds_between(a, b);
      run->program_s[pi].push_back(secs);
      run->trials += res.metrics.trials_total;
      const auto it = expected.find(p.name);
      const Answer got = answer_of(res);
      if (it == expected.end() || !(it->second == got)) {
        ++run->failed;
        std::fprintf(stderr, "search_bench: %s answer mismatch: got '%s'\n",
                     p.name.c_str(), format_answer(p.name, got).c_str());
      }
      if (traced) {
        const double check_s = timed->take_seconds();
        ledger.add(res.metrics, secs);
        ledger.check_s += check_s;
        run->program_ledgers[pi].add(res.metrics, secs);
        run->program_ledgers[pi].check_s += check_s;
        spans.push_back(SearchSpan{pi, a, b});
        if (!run->have_final[pi]) {
          run->final_configs[pi] = res.final_config;
          run->have_final[pi] = true;
        }
      }
    } catch (const std::exception& e) {
      b = Clock::now();
      ++run->failed;
      std::fprintf(stderr, "search_bench: %s threw: %s\n", p.name.c_str(),
                   e.what());
    }
    round_s += seconds_between(a, b);
    run->search_end_rss_mb = std::max(run->search_end_rss_mb, current_rss_mb());
    // Hand freed heap memory back between searches, as separate processes
    // would, so that the peak RSS does not depend on the order in which the
    // seed ran earlier searches. Outside the search span.
    malloc_trim(0);
  }
  const Clock::time_point round_end = Clock::now();
  run->measured_s += round_s;
  if (traced) {
    run->traced_round_s.push_back(round_s);
    run->ledgers.push_back(ledger);
    const long id = tracer->add("round", "", round_start, round_end, -1);
    for (const SearchSpan& s : spans) {
      tracer->add("search.run_search", progs[s.program].name, s.start, s.end,
                  id);
    }
  } else {
    run->round_s.push_back(round_s);
  }
}

// ---- Replay ----------------------------------------------------------------

struct ReplayTotals {
  double patch_s = 0.0;
  double predecode_s = 0.0;
  double setup_s = 0.0;
  double run_cold_s = 0.0;
  double run_warm_s = 0.0;
  double check_s = 0.0;
  double build_s = 0.0;
  std::uint64_t retired = 0;
  std::size_t configs = 0;
  std::size_t mismatches = 0;

  void add(const ReplayTotals& o) {
    patch_s += o.patch_s;
    predecode_s += o.predecode_s;
    setup_s += o.setup_s;
    run_cold_s += o.run_cold_s;
    run_warm_s += o.run_warm_s;
    check_s += o.check_s;
    build_s += o.build_s;
    retired += o.retired;
    configs += o.configs;
    mismatches += o.mismatches;
  }

  std::string to_json() const {
    return strformat(
        "{\"configs\": %zu, \"mismatches\": %zu, \"patch_s\": %.9g, "
        "\"predecode_s\": %.9g, \"vm_setup_s\": %.9g, \"run_cold_s\": %.9g, "
        "\"run_warm_s\": %.9g, \"check_s\": %.9g, \"build_s\": %.9g, "
        "\"retired\": %llu}",
        configs, mismatches, patch_s, predecode_s, setup_s, run_cold_s,
        run_warm_s, check_s, build_s,
        static_cast<unsigned long long>(retired));
  }
};

std::vector<std::pair<std::string, config::PrecisionConfig>> replay_configs(
    const Program& p, const config::PrecisionConfig& final_config,
    std::uint64_t seed) {
  std::vector<std::pair<std::string, config::PrecisionConfig>> out;
  out.emplace_back("all-double", config::PrecisionConfig(p.index));
  config::PrecisionConfig single(p.index);
  for (std::size_t m = 0; m < p.index.modules().size(); ++m) {
    single.set_module(m, config::Precision::kSingle);
  }
  out.emplace_back("module-single", std::move(single));
  SplitMix64 rng(seed ^ fnv1a64(p.name));
  for (int k = 0; k < kReplayMixes; ++k) {
    config::PrecisionConfig mix(p.index);
    for (std::size_t f = 0; f < p.index.funcs().size(); ++f) {
      if (rng.next_below(2) == 1) mix.set_func(f, config::Precision::kSingle);
    }
    out.emplace_back(strformat("func-mix-%d", k), std::move(mix));
  }
  out.emplace_back("final", final_config);
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Calls each layer's public function in turn on every sampled config, and
/// checks outputs and verdict against verify::evaluate_config.
void replay_program(const Program& p, const config::PrecisionConfig& final_cfg,
                    std::uint64_t seed, vm::Engine engine, Tracer* tracer,
                    ReplayTotals* tot) {
  const search::SearchOptions defaults;
  vm::Machine::Options mopts;
  mopts.max_instructions = defaults.max_instructions_per_run;
  mopts.profile = false;
  mopts.engine = engine;
  TimedVerifier verifier(*p.verifier);
  verify::TrialBuilder builder(p.image, p.index);
  for (const auto& [label, cfg] : replay_configs(p, final_cfg, seed)) {
    const std::string who = p.name + " " + label;
    const Clock::time_point c0 = Clock::now();
    const long parent = tracer->add("replay.config", who, c0, c0, -1);
    const auto span = [&](const char* name, Clock::time_point a) {
      const Clock::time_point b = Clock::now();
      tracer->add(name, who, a, b, parent);
      return seconds_between(a, b);
    };

    Clock::time_point a = Clock::now();
    program::Image patched = instrument::instrument_image(p.image, p.index, cfg);
    tot->patch_s += span("instrument.instrument_image", a);

    a = Clock::now();
    const std::shared_ptr<const vm::ExecutableImage> exec =
        vm::ExecutableImage::build(std::move(patched));
    tot->predecode_s += span("vm.ExecutableImage::build", a);

    a = Clock::now();
    vm::Machine cold(exec, mopts);
    tot->setup_s += span("vm.Machine", a);
    a = Clock::now();
    const vm::RunResult cold_run = cold.run();
    const double cold_s = span("vm.Machine::run cold", a);

    vm::Machine warm(exec, mopts);
    a = Clock::now();
    const vm::RunResult warm_run = warm.run();
    const double warm_s = span("vm.Machine::run warm", a);
    tot->run_cold_s += cold_s;
    tot->run_warm_s += warm_s;
    tot->retired += warm_run.instructions_retired;

    bool passed = false;
    if (warm_run.ok()) {
      verifier.take_seconds();
      passed = verifier.verify(warm.output_f64());
      tot->check_s += verifier.take_seconds();
    }

    a = Clock::now();
    builder.build(cfg);
    tot->build_s += span("verify.TrialBuilder::build", a);

    verify::EvalOptions eopts;
    eopts.max_instructions = mopts.max_instructions;
    eopts.engine = engine;
    const verify::EvalResult ref =
        verify::evaluate_config(p.image, p.index, cfg, *p.verifier, eopts);
    const bool agree =
        ref.passed == passed && ref.run_status == warm_run.status &&
        cold_run.status == warm_run.status &&
        ref.instructions_retired == warm_run.instructions_retired &&
        cold_run.instructions_retired == warm_run.instructions_retired &&
        same_bits(ref.outputs, warm.output_f64()) &&
        same_bits(cold.output_f64(), warm.output_f64());
    tracer->finish(parent, Clock::now());
    ++tot->configs;
    if (!agree) {
      ++tot->mismatches;
      std::fprintf(stderr,
                   "search_bench: replay of %s differs from "
                   "evaluate_config\n",
                   who.c_str());
    }
  }
}

// ---- Host fingerprint ------------------------------------------------------

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t s = colon + 1;
        while (s < line.size() && line[s] == ' ') ++s;
        return line.substr(s);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string fingerprint_json(vm::Engine engine) {
  return strformat(
      "{\"nproc\": %u, \"cpu_model\": %s, \"build_type\": %s, "
      "\"jit_supported\": %s, \"engine\": \"%s\"}",
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      json_string(FPMIX_BENCH_BUILD_TYPE).c_str(),
      vm::jit::jit_supported() ? "true" : "false", engine_name(engine));
}

// ---- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string j = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    j += strformat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                   ms[i].unit);
  }
  return j + "}";
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += strformat("%s%.9g", i == 0 ? "" : ", ", v[i]);
  }
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

// ---- Modes -----------------------------------------------------------------

int make_expected(const std::string& path) {
  std::string text =
      "# Expected search answers, from the simplest path: switch engine, no\n"
      "# image cache, one thread, in-process. Regenerate with\n"
      "# `search_bench --make-expected FILE`.\n"
      "# program digest final_passed candidates replaced_static static_pct "
      "dynamic_pct\n";
  std::map<std::string, bool> done;
  for (const WorkloadSpec& spec : workload_specs()) {
    Tracer off(false);
    SetupTimes times;
    for (Program& p : set_up(spec, &off, &times)) {
      if (done[p.name]) continue;
      done[p.name] = true;
      search::SearchOptions opts;
      opts.engine = vm::Engine::kSwitch;
      opts.image_cache = false;
      opts.num_threads = 1;
      const search::SearchResult res =
          search::run_search(p.image, &p.index, *p.verifier, opts);
      text += format_answer(p.name, answer_of(res)) + "\n";
      std::printf("%s\n", format_answer(p.name, answer_of(res)).c_str());
    }
  }
  return write_file(path, text) ? 0 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string expected;
  std::string out_dir;
};

int bench(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workload_specs()) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "search_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::map<std::string, Answer> expected;
  if (!load_expected(args.expected, &expected)) {
    std::fprintf(stderr, "search_bench: cannot read expected answers %s\n",
                 args.expected.c_str());
    return 2;
  }
  const std::string journal_dir = args.out_dir + "/journal";
  std::filesystem::create_directories(journal_dir);
  std::filesystem::create_directories(args.out_dir + "/results");
  const vm::Engine engine = resolved_engine();
  Tracer tracer(args.trace);

  // Setup, repeated; the last repetition's programs are searched.
  std::vector<Program> progs;
  std::vector<double> setup_total, setup_build, setup_index, setup_ref;
  const auto set_up_rep = [&](Tracer* t) {
    SetupTimes st;
    std::vector<Program> built = set_up(*spec, t, &st);
    setup_total.push_back(st.total);
    setup_build.push_back(st.build);
    setup_index.push_back(st.index);
    setup_ref.push_back(st.reference);
    return built;
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    progs.clear();
    progs = set_up_rep(&tracer);
  }
  for (const Program& p : progs) {
    if (expected.find(p.name) == expected.end()) {
      std::fprintf(stderr, "search_bench: no expected answer for %s\n",
                   p.name.c_str());
      return 2;
    }
  }

  Run run;
  run.program_s.resize(progs.size());
  run.program_ledgers.resize(progs.size());
  run.final_configs.resize(progs.size());
  run.have_final.assign(progs.size(), false);
  // One untimed round in a seed-independent order first, so the allocator's
  // steady state and the process's peak memory do not depend on which
  // program the seed happens to put first.
  {
    Run warm = run;
    SplitMix64 warm_rng(0);
    Tracer off(false);
    run_round(*spec, progs, expected, journal_dir, false, &warm_rng, &off,
              &warm);
    run.searches += warm.searches;
    run.failed += warm.failed;
  }
  SplitMix64 rng(args.seed);
  // Traced runs alternate untraced and traced rounds and need one of each.
  const std::size_t min_rounds = args.trace ? 2 : 1;
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0;
       r < min_rounds || seconds_between(start, Clock::now()) < args.seconds;
       ++r) {
    const bool traced = args.trace && r % 2 == 1;
    run_round(*spec, progs, expected, journal_dir, traced, &rng, &tracer,
              &run);
    // One more setup repetition after each round, outside every timed
    // span, so that the set-up median samples the host over the whole run,
    // as the round times do, not only over its first second.
    Tracer off(false);
    set_up_rep(&off);
  }
  std::filesystem::remove_all(journal_dir);

  double tail_pct = 0.0;
  bool ten_beyond = false;
  const double suite_tail = tail(run.round_s, &tail_pct, &ten_beyond);
  double log_sum = 0.0;
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < progs.size(); ++i) {
    const double m = median(run.program_s[i]);
    log_sum += std::log(m);
    rows.push_back(strformat(
        "{\"program\": \"%s\", \"searches\": %zu, \"median_search_s\": "
        "%.9g",
        progs[i].name.c_str(), run.program_s[i].size(), m));
    std::printf("  %-8s %3zu searches, median %.4f s\n",
                progs[i].name.c_str(), run.program_s[i].size(), m);
  }
  const double geomean =
      std::exp(log_sum / static_cast<double>(std::max<std::size_t>(
                             1, progs.size())));
  // The kernel updates its high-water mark lazily, so a short peak of heap
  // memory can escape it; the resident set sampled at the end of every
  // search, before the heap is trimmed, still holds that peak.
  const double hwm_rss = peak_rss_mb(RUSAGE_SELF);
  const double rss = std::max(hwm_rss, run.search_end_rss_mb);
  const double worker_rss = peak_rss_mb(RUSAGE_CHILDREN);

  std::size_t attempted = run.searches;
  std::size_t failed = run.failed;
  std::vector<Metric> metrics;
  bool counts_repeat = true;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_total), "s"},
        {"suite_s.p50", median(run.round_s), "s"},
        {"suite_s.tail", suite_tail, "s"},
        {"search_s.geomean", geomean, "s"},
        {"trials_per_s",
         ratio(static_cast<double>(run.trials), run.measured_s), "1/s"},
        {"peak_rss_mb", rss, "MiB"},
    };
  } else {
    const double lanes = static_cast<double>(lanes_of(*spec));
    ReplayTotals rt;
    for (std::size_t i = 0; i < progs.size(); ++i) {
      ReplayTotals pt;
      replay_program(progs[i], run.final_configs[i], args.seed, engine,
                     &tracer, &pt);
      rt.add(pt);
      const RoundLedger& pl = run.program_ledgers[i];
      rows[i] += strformat(
          ", \"traced\": {\"search_s\": %.9g, \"eval_s\": %.9g, "
          "\"staged_s\": %.9g, \"check_s\": %.9g, \"trials\": %zu, "
          "\"trials_live\": %zu, \"driver_s\": %.9g, "
          "\"unattributed_frac\": %.9g}, \"replay\": %s",
          pl.search_s, pl.eval_s, pl.staged_s, pl.check_s, pl.trials,
          pl.trials_live, pl.search_s - pl.eval_s / lanes,
          1.0 - ratio(pl.staged_s, pl.eval_s), pt.to_json().c_str());
    }
    attempted += rt.configs;
    failed += rt.mismatches;

    // Counts come from the first traced round; later rounds must repeat them.
    const RoundLedger& first = run.ledgers.front();
    std::vector<double> driver, idle, unattributed, check, hit, reused,
        delta, bytes;
    for (const RoundLedger& l : run.ledgers) {
      counts_repeat = counts_repeat && l.trials == first.trials &&
                      l.trials_live == first.trials_live &&
                      l.requests == first.requests;
      // With one lane this is the run_search span minus summed evaluation;
      // with more, evaluation overlaps, so only its per-lane share counts.
      driver.push_back(l.search_s - l.eval_s / lanes);
      idle.push_back(1.0 - ratio(l.eval_s, lanes * l.search_s));
      unattributed.push_back(1.0 - ratio(l.staged_s, l.eval_s));
      check.push_back(l.check_s);
      hit.push_back(ratio(static_cast<double>(l.image_hits),
                          static_cast<double>(l.image_hits + l.image_misses)));
      reused.push_back(
          ratio(static_cast<double>(l.funcs_reused),
                static_cast<double>(l.funcs_reused + l.funcs_patched)));
      delta.push_back(ratio(static_cast<double>(l.delta_requests),
                            static_cast<double>(l.frames)));
      bytes.push_back(ratio(static_cast<double>(l.frame_bytes),
                            static_cast<double>(l.frames)));
    }
    if (!counts_repeat) {
      std::fprintf(stderr, "search_bench: trial counts differ between "
                           "traced rounds\n");
    }
    metrics = {
        {"kernels.build_s", median(setup_build), "s"},
        {"config.index_s", median(setup_index), "s"},
        {"verify.reference_s", median(setup_ref), "s"},
        {"search.trials", static_cast<double>(first.trials), "count"},
        {"search.trials_live", static_cast<double>(first.trials_live),
         "count"},
        {"search.driver_s", median(driver), "s"},
        {"search.lane_idle_frac", median(idle), "fraction"},
        {"search.unattributed_frac", median(unattributed), "fraction"},
        {"instrument.patch_s", rt.patch_s, "s"},
        {"vm.predecode_s", rt.predecode_s, "s"},
        {"vm.setup_s", rt.setup_s, "s"},
        {"vm.run_cold_s", rt.run_cold_s, "s"},
        {"vm.run_warm_s", rt.run_warm_s, "s"},
        {"vm.jit_s", rt.run_cold_s - rt.run_warm_s, "s"},
        {"vm.mips", ratio(1e-6 * static_cast<double>(rt.retired),
                          rt.run_warm_s),
         "Minstr/s"},
        {"vm.retired", static_cast<double>(rt.retired), "count"},
        {"verify.build_s", rt.build_s, "s"},
        {"verify.image_cache_hit_ratio", median(hit), "fraction"},
        {"verify.funcs_reused_ratio", median(reused), "fraction"},
        {"verify.check_s", median(check), "s"},
        {"runner.requests", static_cast<double>(first.requests), "count"},
        {"runner.delta_frac", median(delta), "fraction"},
        {"runner.bytes_per_request", median(bytes), "B"},
        {"runner.respawns", static_cast<double>(first.respawns), "count"},
        {"runner.worker_peak_rss_mb", worker_rss, "MiB"},
        {"trace.overhead_s",
         median(run.traced_round_s) - median(run.round_s), "s"},
    };
    std::printf("  replay: %zu configs, %zu differ from evaluate_config\n",
                rt.configs, rt.mismatches);
  }

  std::string program_rows;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    program_rows += (i == 0 ? "" : ",\n  ") + rows[i] + "}";
  }
  const bool correct = failed == 0;
  const std::string setup_reps = join(setup_total);
  const std::string fp = fingerprint_json(engine);
  const std::string record = strformat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %.17g,\n \"fingerprint\": %s,\n"
      " \"setup_reps_s\": [%s],\n"
      " \"round_s\": [%s],\n"
      " \"rounds\": %zu, \"traced_rounds\": %zu, \"tail_percentile\": %.6g, "
      "\"tail_has_ten_beyond\": %s, \"untraced_suite_s_p50\": %.17g, "
      "\"traced_suite_s_p50\": %.17g, \"counts_repeat\": %s,\n"
      " \"hwm_rss_mb\": %.17g, \"search_end_rss_mb\": %.17g, "
      "\"attempted\": %zu, \"failed\": %zu, \"failed_frac\": %.17g, "
      "\"peak_rss_mb\": %.17g, \"worker_peak_rss_mb\": %.17g,\n"
      " \"metrics\": %s,\n \"programs\": [%s]}\n",
      spec->name, static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, args.seconds, fp.c_str(), setup_reps.c_str(),
      join(run.round_s).c_str(),
      run.round_s.size(),
      run.traced_round_s.size(), tail_pct, ten_beyond ? "true" : "false",
      median(run.round_s), median(run.traced_round_s),
      counts_repeat ? "true" : "false", hwm_rss, run.search_end_rss_mb,
      attempted, failed,
      ratio(static_cast<double>(failed), static_cast<double>(attempted)), rss,
      worker_rss, metrics_json(metrics).c_str(), program_rows.c_str());
  const std::string stem = strformat(
      "%s-seed%llu", spec->name, static_cast<unsigned long long>(args.seed));
  write_file(strformat("%s/results/%s-trace%d.json", args.out_dir.c_str(),
                       stem.c_str(), args.trace ? 1 : 0),
             record);
  if (args.trace) {
    write_file(args.out_dir + "/trace-" + stem + ".json",
               tracer.to_json(",\n\"fingerprint\": " + fp +
                              ",\n\"programs\": [" + program_rows + "]"));
  }

  std::printf("%s: engine %s, %zu rounds (tail = p%.1f%s), %zu searches, "
              "%zu failed, peak rss %.1f MiB (workers %.1f MiB)\n",
              spec->name, engine_name(engine),
              run.round_s.size() + run.traced_round_s.size(), tail_pct,
              ten_beyond ? "" : ", fewer than 11 rounds: max", attempted,
              failed, rss, worker_rss);
  std::printf("fingerprint: %s\n", fp.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  return 0;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    std::uint64_t n = 0;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed" && parse_u64(v, &n)) {
      a->seed = n;
    } else if (k == "--seconds" && parse_u64(v, &n) && n > 0) {
      a->seconds = static_cast<double>(n);
    } else if (k == "--trace" && parse_u64(v, &n) && n <= 1) {
      a->trace = n == 1;
    } else if (k == "--expected") {
      a->expected = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->expected.empty() &&
         !a->out_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--make-expected") == 0) {
    return make_expected(argv[2]);
  }
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: search_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --expected FILE --out-dir DIR\n"
                 "       search_bench --make-expected FILE\n");
    return 2;
  }
  try {
    return bench(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "search_bench: %s\n", e.what());
    return 3;
  }
}
