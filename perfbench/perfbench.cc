// perfbench: the layered benchmark driver for the sndp simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workload-seed N] [--trace-out PATH]
//
// One process runs one named workload, a fixed list of simulation items,
// through the library's public entry points with the shipping defaults
// (stats audit, cycle-stack profiler and latency tracing on, as sndpsim runs
// them).  Every item starts from an empty functional memory and empty
// modelled caches: no warm-up.  The loop is closed: each simulation starts
// when the previous one returns.
//
// Seeds.  `--workload-seed` is SystemConfig::placement_seed, which feeds
// Workload::setup, random page placement and the governor; it fixes the
// simulated inputs, so simulated results are identical across runs.
// `--seed` drives only the benchmark's own choices: the order of the serial
// items in each pass and the synthetic streams of the layer replays.
//
// --trace 0 times repeated untraced passes over the item list for about
// `--seconds` and prints the end-to-end metrics.  --trace 1 makes one
// untraced pass, then one traced pass that records host-time spans around
// every call into a layer, and prints the per-layer metrics.  The last line
// of stdout is always one JSON object: correct, attempted, failed, metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "mem/placement.h"
#include "ref/placement_profile.h"
#include "replays.h"
#include "sndp.h"
#include "span_log.h"

using namespace sndp;
using perfbench::SpanLog;
using perfbench::SpanScope;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// SystemConfig's own default placement seed.  Results published from this
// benchmark use it; kHeldOutWorkloadSeed is kept out of all tuning so a
// later claim can be re-checked on inputs it was not developed against.
constexpr std::uint64_t kDefaultWorkloadSeed = 0x5EED;
constexpr std::uint64_t kHeldOutWorkloadSeed = 0x7E5701;

// The scaled dynamic-offload epoch of bench/bench_util.h::paper_config:
// inputs are scaled down from the paper, so the epoch is too.
constexpr Cycle kScaledEpoch = 1000;

// Paper §7: NDP(Dyn)_Cache mean speedup over the baseline GPU.
constexpr double kPaperNdpSpeedup = 1.179;

// The set-up is repeated kSetupRepeats times, back to back before the timed
// passes, and setup_s is the median.  Repeats after a pass would run on a
// heap the simulations have grown, and take about 30% less time than those
// before it.
constexpr std::size_t kSetupRepeats = 7;

// ---------------------------------------------------------------------------
// Workloads

struct Item {
  std::string kernel;
  ProblemScale scale = ProblemScale::kSmall;
  OffloadMode mode = OffloadMode::kDynamicCache;
  PlacementPolicyKind placement = PlacementPolicyKind::kRandom;
};

struct WorkloadDef {
  std::string name;
  std::vector<Item> items;
  bool sweep = false;  // run each pass through SweepRunner on `jobs` threads
};

const char* scale_name(ProblemScale s) {
  switch (s) {
    case ProblemScale::kTiny: return "tiny";
    case ProblemScale::kSmall: return "small";
    case ProblemScale::kLarge: return "large";
  }
  return "?";
}

std::string item_id(const Item& it) {
  std::string id = it.kernel + "/" + scale_name(it.scale) + "/" +
                   (it.mode == OffloadMode::kOff ? "off" : "dyn-cache");
  if (it.placement != PlacementPolicyKind::kRandom) {
    id += std::string("/") + placement_policy_name(it.placement);
  }
  return id;
}

// Why each workload exists is in perfbench/README.md.
std::optional<WorkloadDef> find_workload(const std::string& name) {
  constexpr auto kOff = OffloadMode::kOff;
  constexpr auto kDyn = OffloadMode::kDynamicCache;
  constexpr auto kSmall = ProblemScale::kSmall;
  constexpr auto kLarge = ProblemScale::kLarge;
  WorkloadDef w;
  w.name = name;
  if (name == "eval-grid") {
    w.sweep = true;
    for (const std::string& k : all_workload_names()) {
      w.items.push_back({k, kSmall, kOff});
      w.items.push_back({k, kSmall, kDyn});
    }
  } else if (name == "gpu-bound") {
    for (const char* k : {"STCL", "STN", "ATTN"}) {
      w.items.push_back({k, kLarge, kOff});
      w.items.push_back({k, kLarge, kDyn});
    }
  } else if (name == "ndp-offload") {
    w.items = {{"BFS", kSmall, kDyn}, {"BICG", kLarge, kDyn}, {"FWT", kLarge, kDyn}};
  } else if (name == "placement-migrate") {
    w.items = {{"BFS", kSmall, kDyn, PlacementPolicyKind::kMigration},
               {"FWT", kLarge, kDyn, PlacementPolicyKind::kMigration},
               {"FWT", kLarge, kDyn, PlacementPolicyKind::kLocality}};
  } else {
    return std::nullopt;
  }
  return w;
}

SystemConfig item_config(const Item& it, std::uint64_t workload_seed) {
  SystemConfig cfg = SystemConfig::paper();
  cfg.governor.mode = it.mode;
  cfg.governor.static_ratio = 1.0;
  cfg.governor.epoch_cycles = kScaledEpoch;
  cfg.placement.policy = it.placement;
  cfg.placement_seed = workload_seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Setup phase: everything an item needs before its first timed run.

struct Prepared {
  Item item;
  SystemConfig cfg;  // locality items carry their pre-built profile
  std::unique_ptr<Workload> wl;
};

std::vector<Prepared> prepare(const std::vector<Item>& items, std::uint64_t workload_seed,
                              SpanLog* log) {
  std::vector<Prepared> out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int run = static_cast<int>(i) + 1;
    Prepared p{items[i], item_config(items[i], workload_seed), nullptr};
    // Same memory image Simulator::run builds: tenant 0's seed is the
    // classic single-run setup seed.
    GlobalMemory mem;
    MemoryAllocator alloc;
    Rng rng(tenant_setup_seed(workload_seed, 0));
    {
      SpanScope s(log, "workloads.setup", run);
      p.wl = make_workload(p.item.kernel, p.item.scale);
      p.wl->setup(mem, alloc, rng);
    }
    {
      SpanScope s(log, "offload.analyze", run);
      analyze_and_generate(p.wl->program());
    }
    if (p.item.placement == PlacementPolicyKind::kLocality) {
      SpanScope s(log, "ref.profile", run);
      p.cfg.placement.locality_profile =
          build_placement_profile(p.wl->program(), p.wl->launch(), mem, p.cfg);
    }
    out.push_back(std::move(p));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Runs, the correctness gate and the stats digest

struct ItemRun {
  RunResult result;
  double seconds = 0.0;
  std::string error;  // non-empty: the simulator threw
  std::size_t frames = 0;
};

// Empty when the run passes; otherwise why it failed.
std::string gate_failure(const ItemRun& r) {
  if (!r.error.empty()) return "threw: " + r.error;
  if (r.result.aborted) return "aborted";
  if (!r.result.completed) return "did not complete";
  if (!r.result.verified) return "failed verification";
  const double violations = r.result.stats.get_or("audit.violations", 0.0);
  if (violations > 0) return "audit violations: " + std::to_string(violations);
  return "";
}

// FNV-1a over every stat (name and exact value bits) except wall-clock ones,
// plus the cycle count: equal digests mean bit-identical simulated results.
std::uint64_t stats_digest(const RunResult& r) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
  };
  for (const auto& [name, value] : r.stats.values()) {
    if (name.find("wall") != std::string::npos) continue;
    mix(name.data(), name.size());
    mix(&value, sizeof value);
  }
  const std::uint64_t cycles = r.sm_cycles;
  mix(&cycles, sizeof cycles);
  return h;
}

// Counts attempted and failed runs and holds each item's reference digest.
class Checker {
 public:
  explicit Checker(std::size_t items) : digests_(items) {}

  // Gate and digest check against the item's first run.
  void record(const std::string& id, std::size_t item, const ItemRun& r, const char* pass) {
    if (!record_gate(id, r, pass)) return;
    const std::uint64_t d = stats_digest(r.result);
    if (!digests_[item]) {
      digests_[item] = d;
    } else if (*digests_[item] != d) {
      ++failed_;
      std::printf("FAIL %s [%s]: stats digest %016llx differs from %016llx\n", id.c_str(), pass,
                  static_cast<unsigned long long>(d),
                  static_cast<unsigned long long>(*digests_[item]));
    }
  }

  // Gate only, for runs with no reference digest (the off-mode baselines).
  bool record_gate(const std::string& id, const ItemRun& r, const char* pass) {
    ++attempted_;
    const std::string why = gate_failure(r);
    if (why.empty()) return true;
    ++failed_;
    std::printf("FAIL %s [%s]: %s\n", id.c_str(), pass, why.c_str());
    return false;
  }

  std::uint64_t digest(std::size_t item) const { return digests_[item].value_or(0); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<std::optional<std::uint64_t>> digests_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

ItemRun run_item(const Prepared& p, GlobalMemory* sink) {
  ItemRun r;
  const auto start = Clock::now();
  try {
    Simulator sim(p.cfg);
    if (sink != nullptr) sim.set_final_memory_sink(sink);
    r.result = sim.run(*p.wl);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.seconds = seconds_since(start);
  return r;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<ItemRun> runs;  // indexed like the item list

  double sim_seconds() const {
    double s = 0.0;
    for (const ItemRun& r : runs) s += r.seconds;
    return s;
  }
  double longest_seconds() const {
    double s = 0.0;
    for (const ItemRun& r : runs) s = std::max(s, r.seconds);
    return s;
  }
};

Pass run_serial_pass(const std::vector<Prepared>& items, const std::vector<std::size_t>& order) {
  Pass pass;
  pass.runs.resize(items.size());
  const auto start = Clock::now();
  for (std::size_t i : order) pass.runs[i] = run_item(items[i], nullptr);
  pass.wall_s = seconds_since(start);
  return pass;
}

Pass run_sweep_pass(const std::vector<Prepared>& items, unsigned jobs) {
  SweepRunner runner({.jobs = jobs});
  for (const Prepared& p : items) {
    runner.add({.id = item_id(p.item), .workload = p.item.kernel, .scale = p.item.scale,
                .cfg = p.cfg});
  }
  Pass pass;
  const auto start = Clock::now();
  runner.run();
  pass.wall_s = seconds_since(start);
  for (const SweepOutcome& o : runner.outcomes()) {
    ItemRun r;
    r.result = o.result;
    r.seconds = o.wall_seconds;
    if (!o.ran) r.error = o.error.empty() ? "not run" : o.error;
    pass.runs.push_back(std::move(r));
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Statistics helpers

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double geomean(const std::vector<double>& xs) {
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(xs.size()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Provenance

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

struct Build {
  bool optimized = false;
  bool ndebug = false;
  bool sanitized = false;
  bool timings_flagged() const { return !optimized || !ndebug || sanitized; }
};

Build this_build() {
  Build b;
#ifdef __OPTIMIZE__
  b.optimized = true;
#endif
#ifdef NDEBUG
  b.ndebug = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  b.sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  b.sanitized = true;
#endif
#endif
  return b;
}

void print_provenance(const std::string& workload, std::uint64_t bench_seed,
                      std::uint64_t workload_seed, unsigned jobs) {
  const Build b = this_build();
  JsonWriter w;
  w.begin_object();
  w.key("workload").value(workload);
  w.key("cpu").value(cpu_model());
  w.key("nproc").value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("compiler").value(std::string(__VERSION__));
  w.key("build_type").value(std::string(PERFBENCH_BUILD_TYPE));
  w.key("cxx_flags").value(std::string(PERFBENCH_CXX_FLAGS));
  w.key("optimized").value(b.optimized);
  w.key("ndebug").value(b.ndebug);
  w.key("sanitized").value(b.sanitized);
  w.key("timings_flagged").value(b.timings_flagged());
  w.key("bench_seed").value(bench_seed);
  w.key("workload_seed").value(workload_seed);
  w.key("held_out_workload_seed").value(kHeldOutWorkloadSeed);
  w.key("sweep_jobs").value(static_cast<std::uint64_t>(jobs));
  w.key("caches").value(std::string("modelled caches start empty (no warm-up)"));
  w.end_object();
  std::printf("provenance %s\n", w.str().c_str());
  if (b.timings_flagged()) {
    std::printf("WARNING: debug or sanitizer build; host timings are flagged and "
                "must not be compared with release figures\n");
  }
}

// ---------------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// runs_failed_frac is printed here and carried by the JSON's attempted and
// failed counts rather than as a metric: it is 0 on a healthy run.
void print_result(bool correct, const Checker& check, const std::vector<Metric>& metrics) {
  std::printf("\nruns_failed_frac %.6g (%llu of %llu runs failed the correctness gate)\n",
              ratio(static_cast<double>(check.failed()), static_cast<double>(check.attempted())),
              static_cast<unsigned long long>(check.failed()),
              static_cast<unsigned long long>(check.attempted()));
  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(check.attempted());
  w.key("failed").value(check.failed());
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

// Simulated per-layer counters summed (or combined) over the item list.
std::vector<Metric> simulated_layer_metrics(const std::vector<ItemRun>& runs) {
  double issued = 0, l1h = 0, l1m = 0, stall_dep = 0, stall_exec = 0, stall_idle = 0;
  double cycles = 0, l2h = 0, l2m = 0, reads = 0, writes = 0, acts = 0, qlat_w = 0;
  double migrated = 0, pgcp_w = 0, packets = 0, offchip = 0, cube = 0, peak_up = 0;
  double nsu_instrs = 0, lane_ops = 0, read_wait = 0, occ_sum = 0, occ_n = 0;
  double denials = 0, grants = 0, offloads = 0, decisions = 0, suppressed = 0, epochs = 0;
  double audit_checks = 0, spans_dropped = 0, e_gpu = 0, e_dram = 0, e_nsu = 0, e_noc = 0;
  for (const ItemRun& run : runs) {
    const RunResult& r = run.result;
    const StatSet& s = r.stats;
    issued += s.get_or("gpu.issued_instrs", 0);
    cycles += static_cast<double>(r.sm_cycles);
    l1h += s.get_or("gpu.l1_hits", 0);
    l1m += s.get_or("gpu.l1_misses", 0);
    stall_dep += s.get_or("gpu.stall_dependency", 0);
    stall_exec += s.get_or("gpu.stall_exec_busy", 0);
    stall_idle += s.get_or("gpu.stall_warp_idle", 0);
    l2h += s.get_or("gpu.l2_hits", 0);
    l2m += s.get_or("gpu.l2_misses", 0);
    for (unsigned h = 0;; ++h) {
      const std::string p = "hmc" + std::to_string(h) + ".";
      if (!s.contains(p + "reads")) break;
      const double n = s.get(p + "reads") + s.get(p + "writes");
      reads += s.get(p + "reads");
      writes += s.get(p + "writes");
      acts += s.get_or(p + "activates", 0);
      qlat_w += n * s.get_or(p + "qlat.mean", 0);
      pgcp_w += s.get_or(p + "page_copy_writes", 0);
      nsu_instrs += s.get_or(p + "nsu.instrs", 0);
      lane_ops += s.get_or(p + "nsu.lane_ops", 0);
      read_wait += s.get_or(p + "nsu.stall_read_wait", 0);
      occ_sum += s.get_or(p + "nsu.avg_occupancy", 0);
      occ_n += 1;
    }
    migrated += s.get_or("mem.pages_migrated", 0);
    packets += s.get_or("net.packets_injected", 0);
    offchip += s.get_or("net.total_offchip_bytes", 0);
    cube += s.get_or("net.cube_bytes", 0);
    peak_up = std::max(peak_up, s.get_or("timeline.peak_gpu_up_util", 0));
    denials += s.get_or("bufmgr.denials", 0);
    grants += s.get_or("bufmgr.grants", 0);
    offloads += s.get_or("governor.offloads", 0);
    decisions += s.get_or("governor.decisions", 0);
    suppressed += s.get_or("governor.suppressed_by_cache", 0);
    epochs += s.get_or("governor.epochs", 0);
    audit_checks += s.get_or("audit.checks", 0);
    spans_dropped += s.get_or("sim.latency_spans_dropped", 0);
    e_gpu += r.energy.gpu_j;
    e_dram += r.energy.dram_j;
    e_nsu += r.energy.nsu_j;
    e_noc += r.energy.hmc_noc_j + r.energy.offchip_j;
  }
  return {
      {"gpu.issued_instrs", issued, "count"},
      {"gpu.ipc", ratio(issued, cycles), "instr/cycle"},
      {"gpu.l1_hit_rate", ratio(l1h, l1h + l1m), "ratio"},
      {"gpu.stall_dependency", stall_dep, "cycles"},
      {"gpu.stall_exec_busy", stall_exec, "cycles"},
      {"gpu.stall_warp_idle", stall_idle, "cycles"},
      {"mem.l2_hit_rate", ratio(l2h, l2h + l2m), "ratio"},
      {"mem.dram_reads", reads, "count"},
      {"mem.dram_writes", writes, "count"},
      {"mem.row_activates", acts, "count"},
      {"mem.qlat_mean", ratio(qlat_w, reads + writes), "ps"},
      {"mem.pages_migrated", migrated, "count"},
      {"mem.page_copy_writes", pgcp_w, "count"},
      {"noc.packets", packets, "count"},
      {"noc.offchip_bytes", offchip, "B"},
      {"noc.cube_bytes", cube, "B"},
      {"noc.peak_gpu_up_util", peak_up, "ratio"},
      {"ndp.nsu_instrs", nsu_instrs, "count"},
      {"ndp.nsu_lane_ops", lane_ops, "count"},
      {"ndp.nsu_read_wait", read_wait, "cycles"},
      {"ndp.nsu_occupancy", ratio(occ_sum, occ_n), "ratio"},
      {"ndp.credit_denials", denials, "count"},
      {"ndp.credit_grant_ratio", ratio(grants, grants + denials), "ratio"},
      {"ctrl.offload_frac", ratio(offloads, decisions), "ratio"},
      {"ctrl.suppressed_by_cache", suppressed, "count"},
      {"ctrl.epochs", epochs, "count"},
      {"obs.audit_checks", audit_checks, "count"},
      {"obs.latency_spans_dropped", spans_dropped, "count"},
      {"energy.gpu_j", e_gpu, "J"},
      {"energy.dram_j", e_dram, "J"},
      {"energy.nsu_j", e_nsu, "J"},
      {"energy.noc_j", e_noc, "J"},
  };
}

bool is_table1(const std::string& kernel) {
  const auto& t1 = workload_names();
  return std::find(t1.begin(), t1.end(), kernel) != t1.end();
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t workload_seed = kDefaultWorkloadSeed;
  std::string trace_out;
};

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload eval-grid|gpu-bound|ndp-offload|placement-migrate\n"
               "          --seed N --seconds S --trace 0|1 [--workload-seed N]\n"
               "          [--trace-out PATH]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

std::uint64_t parse_u64(const char* argv0, const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage(argv0, "bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(argv[0], flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(argv[0], flag, v));
      if (a.seconds < 1 || a.seconds > 600) usage(argv[0], "--seconds must be in [1, 600]");
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(argv[0], flag, v);
      if (t > 1) usage(argv[0], "--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--workload-seed") {
      a.workload_seed = parse_u64(argv[0], flag, v);
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(argv[0], "unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage(argv[0], "--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::optional<WorkloadDef> def = find_workload(args.workload);
  if (!def) usage(argv[0], "unknown workload '" + args.workload + "'");
  const std::vector<Item>& items = def->items;
  const unsigned jobs =
      def->sweep ? std::clamp(std::thread::hardware_concurrency(), 1u, 4u) : 1u;
  print_provenance(def->name, args.seed, args.workload_seed, jobs);

  // Serial passes visit the items in a seeded order.
  std::vector<std::size_t> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng order_rng(args.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[order_rng.next_below(i)]);
  }

  // Set-up repeats; the first prepared set is the one the passes run.  A
  // repeat's set is freed after its timer stops.
  const auto run_start = Clock::now();
  std::vector<double> setup_times;
  auto time_setup = [&] {
    const auto start = Clock::now();
    std::vector<Prepared> set = prepare(items, args.workload_seed, nullptr);
    setup_times.push_back(seconds_since(start));
    return set;
  };
  std::vector<Prepared> prepared = time_setup();
  for (std::size_t n = 1; !args.trace && n < kSetupRepeats; ++n) time_setup();

  // Untraced passes: a closed loop over the item list.  With --trace 0 it
  // makes at least two passes and ends at the pass end nearest to
  // --seconds.  A traced run makes one, the reference for the tracing
  // overhead.
  Checker check(items.size());
  const char* pass_name = def->sweep ? "sweep" : "serial";
  const std::size_t min_passes = args.trace ? 1 : 2;
  std::vector<Pass> passes;
  double longest_pass_s = 0.0;
  while (passes.size() < min_passes ||
         (!args.trace && seconds_since(run_start) + longest_pass_s / 2 <= args.seconds)) {
    passes.push_back(def->sweep ? run_sweep_pass(prepared, jobs)
                                : run_serial_pass(prepared, order));
    for (std::size_t i = 0; i < items.size(); ++i) {
      check.record(item_id(items[i]), i, passes.back().runs[i], pass_name);
    }
    longest_pass_s = std::max(longest_pass_s, passes.back().wall_s);
  }

  // wall_s is the mean pass wall and sim_kcyc_per_s the simulated cycles of
  // every pass over the host seconds inside Simulator::run of every pass:
  // means over the whole run, so a slow stretch of the host weighs by how
  // long it lasted.
  std::vector<double> walls, sweep_effs, stragglers;
  double total_wall = 0.0, total_sim_s = 0.0, total_kcyc = 0.0;
  std::vector<double> item_mean_s(items.size(), 0.0);
  for (const Pass& p : passes) {
    walls.push_back(p.wall_s);
    total_wall += p.wall_s;
    total_sim_s += p.sim_seconds();
    sweep_effs.push_back(ratio(p.sim_seconds(), p.wall_s * jobs));
    stragglers.push_back(p.longest_seconds());
    for (std::size_t i = 0; i < items.size(); ++i) {
      total_kcyc += static_cast<double>(p.runs[i].result.sm_cycles) / 1000.0;
      item_mean_s[i] += p.runs[i].seconds / static_cast<double>(passes.size());
    }
  }
  const double wall_s = total_wall / static_cast<double>(passes.size());
  const Pass& first = passes.front();
  double sim_cycles = 0.0, sim_energy_mj = 0.0;
  for (const ItemRun& r : first.runs) {
    sim_cycles += static_cast<double>(r.result.sm_cycles);
    sim_energy_mj += r.result.energy.total() * 1e3;
  }

  std::printf("\nworkload %s: %zu items, %zu timed passes, jobs=%u\n", def->name.c_str(),
              items.size(), passes.size(), jobs);
  std::printf("pass wall seconds:");
  for (double w : walls) std::printf(" %.4f", w);
  std::printf("\nsetup seconds:");
  for (double w : setup_times) std::printf(" %.4f", w);
  std::printf("\n%-32s %12s %10s  %s\n", "item", "sm_cycles", "mean_s", "stats_digest");
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::printf("%-32s %12llu %10.4f  %016llx\n", item_id(items[i]).c_str(),
                static_cast<unsigned long long>(first.runs[i].result.sm_cycles), item_mean_s[i],
                static_cast<unsigned long long>(check.digest(i)));
  }

  if (!args.trace) {
    const std::vector<Metric> metrics = {
        {"wall_s", wall_s, "s"},
        {"sim_kcyc_per_s", ratio(total_kcyc, total_sim_s), "kcycles/s"},
        {"setup_s", median(setup_times), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_cycles", sim_cycles, "cycles"},
        {"sim_energy_mj", sim_energy_mj, "mJ"},
    };
    const bool correct = check.failed() == 0;
    print_result(correct, check, metrics);
    return correct ? 0 : 1;
  }

  // ---- Traced run ----------------------------------------------------------
  SpanLog log;
  {
    SpanScope s(&log, "bench.setup", 0);
    prepared = prepare(items, args.workload_seed, &log);
  }

  // The untraced reference for the overhead has the traced pass's shape:
  // serial.  On the sweep workload that pass is a jobs=1 SweepRunner pass,
  // which also checks the jobs=1 digests against the jobs=N ones above.
  double untraced_wall = wall_s;
  if (def->sweep) {
    const Pass serial = run_sweep_pass(prepared, 1);
    for (std::size_t i = 0; i < items.size(); ++i) {
      check.record(item_id(items[i]), i, serial.runs[i], "sweep jobs=1");
    }
    untraced_wall = serial.wall_s;
  }

  std::vector<ItemRun> traced(items.size());
  const auto traced_start = Clock::now();
  for (std::size_t i : order) {
    const int run = static_cast<int>(i) + 1;
    SpanScope item_span(&log, "bench.item", run);
    GlobalMemory sink;
    {
      SpanScope s(&log, "sim.run", run);
      traced[i] = run_item(prepared[i], &sink);
    }
    traced[i].frames = sink.frames_allocated();
    SpanScope s(&log, "workloads.verify", run);
    if (traced[i].error.empty() && !prepared[i].wl->verify(sink)) {
      traced[i].error = "re-verification of the final memory image failed";
    }
  }
  const double traced_wall = seconds_since(traced_start);
  for (std::size_t i = 0; i < items.size(); ++i) {
    check.record(item_id(items[i]), i, traced[i], "traced");
  }

  // NDP speedup: off over dyn-cache cycles per Table 1 kernel.  Items with
  // no off-mode partner in the list get an off-mode baseline run here.
  std::vector<double> speedups;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    if (it.mode != OffloadMode::kDynamicCache || !is_table1(it.kernel)) continue;
    std::optional<Cycle> off_cycles;
    for (std::size_t j = 0; j < items.size(); ++j) {
      const Item& o = items[j];
      if (o.mode == OffloadMode::kOff && o.kernel == it.kernel && o.scale == it.scale &&
          o.placement == it.placement) {
        off_cycles = traced[j].result.sm_cycles;
      }
    }
    if (!off_cycles) {
      Item off = it;
      off.mode = OffloadMode::kOff;
      std::vector<Prepared> base = prepare({off}, args.workload_seed, nullptr);
      SpanScope s(&log, "ctrl.baseline", static_cast<int>(i) + 1);
      const ItemRun r = run_item(base[0], nullptr);
      check.record_gate(item_id(off), r, "baseline");
      off_cycles = r.result.sm_cycles;
    }
    if (traced[i].result.sm_cycles > 0 && *off_cycles > 0) {
      speedups.push_back(static_cast<double>(*off_cycles) /
                         static_cast<double>(traced[i].result.sm_cycles));
    }
  }
  const double ndp_speedup = geomean(speedups);

  std::size_t frames = 0;
  for (const ItemRun& r : traced) frames += r.frames;
  const double rw_ns = perfbench::replay_memfunc_rw(&log, args.seed, frames);
  const double coalesce_ns = perfbench::replay_coalesce(&log, args.seed);
  const double cache_ns = perfbench::replay_cache(&log, args.seed);
  const double vault_ns = perfbench::replay_vault_tick(&log, args.seed);
  const double route_ns = perfbench::replay_route(&log, args.seed);

  const std::map<std::string, double> self = log.self_seconds();
  auto self_s = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  std::vector<Metric> metrics = {
      {"workloads.setup_s", self_s("workloads.setup"), "s"},
      {"workloads.verify_s", self_s("workloads.verify"), "s"},
      {"offload.analyze_s", self_s("offload.analyze"), "s"},
      {"ref.profile_s", self_s("ref.profile"), "s"},
      {"sim.run_s", self_s("sim.run"), "s"},
      {"sim.sweep_eff", median(sweep_effs), "ratio"},
      {"sim.straggler_s", median(stragglers), "s"},
      {"memfunc.frames", static_cast<double>(frames), "count"},
      {"memfunc.rw_ns", rw_ns, "ns"},
      {"gpu.coalesce_ns", coalesce_ns, "ns"},
      {"mem.cache_ns", cache_ns, "ns"},
      {"mem.vault_tick_ns", vault_ns, "ns"},
      {"noc.route_ns", route_ns, "ns"},
      {"ctrl.ndp_speedup", ndp_speedup, "x"},
      {"obs.trace_overhead_s", traced_wall - untraced_wall, "s"},
  };
  for (Metric& m : simulated_layer_metrics(traced)) metrics.push_back(std::move(m));

  std::printf("\ntraced pass %.4f s, untraced %s pass %.4f s: tracing overhead %.4f s\n",
              traced_wall, def->sweep ? "jobs=1 sweep" : "serial", untraced_wall,
              traced_wall - untraced_wall);
  std::printf("ctrl.ndp_speedup %.4f over %zu Table 1 kernels", ndp_speedup, speedups.size());
  if (def->sweep) {
    std::printf(" (paper: %.3f, error %+.1f%%)", kPaperNdpSpeedup,
                100.0 * (ndp_speedup - kPaperNdpSpeedup) / kPaperNdpSpeedup);
  }
  std::printf("; simulated, unvalidated against hardware\n");

  if (!args.trace_out.empty()) {
    std::vector<std::string> rows{"workload"};
    for (const Item& it : items) rows.push_back(item_id(it));
    if (!log.write_chrome(args.trace_out, rows)) {
      std::fprintf(stderr, "failed to write trace '%s'\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("chrome trace: %s (%zu spans)\n", args.trace_out.c_str(), log.spans().size());
  }
  const bool correct = check.failed() == 0;
  print_result(correct, check, metrics);
  return correct ? 0 : 1;
}
