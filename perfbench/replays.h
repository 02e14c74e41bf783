// Host-cost replays of single simulator layers.
//
// Each replay drives one substrate in isolation with a seeded synthetic
// stream and returns host nanoseconds per operation.  The work is timed by
// a span on the caller's log, so the replay cost also shows in the trace.
// The streams are the shapes those layers see in the simulated workloads:
// unit-stride and divergent warps, a working set twice the L2, a streaming
// vault, all-pairs hypercube routes.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "sndp.h"
#include "span_log.h"

namespace perfbench {

// Keeps a replay's results observable so the compiler cannot drop the work.
inline volatile std::uint64_t g_replay_sink = 0;

inline double elapsed_ns(SpanLog::Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(SpanLog::Clock::now() - start).count();
}

// memfunc: read_u64/write_u64 pairs spread over `frames` 64 KiB frames.
inline double replay_memfunc_rw(SpanLog* log, std::uint64_t seed, std::size_t frames) {
  using sndp::GlobalMemory;
  constexpr sndp::Addr kBase = 0x10000;
  constexpr std::size_t kOps = 400'000;
  frames = frames == 0 ? 1 : frames;
  GlobalMemory mem;
  for (std::size_t f = 0; f < frames; ++f) mem.write_u64(kBase + f * GlobalMemory::kFrameBytes, f);
  sndp::Rng rng(seed ^ 0x3E3F);
  std::vector<sndp::Addr> addrs(kOps);
  for (auto& a : addrs) a = kBase + (rng.next_below(frames * GlobalMemory::kFrameBytes) & ~7ull);
  std::uint64_t acc = 0;
  SpanScope span(log, "memfunc.rw", 0);
  const auto start = SpanLog::Clock::now();
  for (sndp::Addr a : addrs) {
    const std::uint64_t v = mem.read_u64(a);
    mem.write_u64(a, v + 1);
    acc += v;
  }
  const double ns = elapsed_ns(start);
  g_replay_sink = acc;
  return ns / (2.0 * kOps);
}

// gpu: warp coalescing, half unit-stride and half divergent warps.
inline double replay_coalesce(SpanLog* log, std::uint64_t seed) {
  constexpr std::size_t kWarps = 4096;
  constexpr std::size_t kCalls = 200'000;
  sndp::Coalescer coalescer(sndp::SystemConfig::paper().l2.line_bytes);
  sndp::Rng rng(seed ^ 0xC0A1);
  std::vector<std::array<sndp::Addr, sndp::kWarpWidth>> warps(kWarps);
  for (std::size_t w = 0; w < kWarps; ++w) {
    const sndp::Addr base = rng.next_below(1 << 24) & ~127ull;
    for (unsigned l = 0; l < sndp::kWarpWidth; ++l) {
      warps[w][l] = (w % 2 == 0) ? base + 8 * l : rng.next_below(1 << 24) & ~7ull;
    }
  }
  std::uint64_t acc = 0;
  SpanScope span(log, "gpu.coalesce", 0);
  const auto start = SpanLog::Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    acc += coalescer.coalesce(warps[i % kWarps], sndp::kFullMask, 8).size();
  }
  const double ns = elapsed_ns(start);
  g_replay_sink = acc;
  return ns / kCalls;
}

// mem: L2 read lookups with fill-on-miss over twice the L2's capacity.
inline double replay_cache(SpanLog* log, std::uint64_t seed) {
  constexpr std::size_t kOps = 500'000;
  const sndp::CacheConfig cfg = sndp::SystemConfig::paper().l2;
  sndp::Cache cache(cfg, "replay");
  const std::uint64_t lines = 2 * cfg.size_bytes / cfg.line_bytes;
  sndp::Rng rng(seed ^ 0xCAC4E);
  std::vector<sndp::Addr> addrs(kOps);
  for (auto& a : addrs) a = rng.next_below(lines) * cfg.line_bytes;
  std::uint64_t acc = 0;
  std::uint64_t token = 0;
  SpanScope span(log, "mem.cache", 0);
  const auto start = SpanLog::Clock::now();
  for (sndp::Addr line : addrs) {
    const auto r = cache.access_read(line, ++token);
    if (r == sndp::CacheAccessResult::kMissNew || r == sndp::CacheAccessResult::kMshrFull) {
      acc += cache.fill(line).size();
    }
  }
  const double ns = elapsed_ns(start);
  g_replay_sink = acc;
  return ns / kOps;
}

// mem: FR-FCFS vault controller under a mixed read/write stream, per tick.
inline double replay_vault_tick(SpanLog* log, std::uint64_t seed) {
  constexpr std::size_t kTicks = 300'000;
  const sndp::SystemConfig cfg = sndp::SystemConfig::paper();
  std::uint64_t completions = 0;
  sndp::VaultController vault(cfg.hmc, cfg.clocks.dram_khz,
                              [&](const sndp::DramRequest&, sndp::TimePs) { ++completions; });
  sndp::AddressMap amap(cfg);
  sndp::Rng rng(seed ^ 0x7A017);
  const sndp::Addr stride = static_cast<sndp::Addr>(cfg.l2.line_bytes) * cfg.hmc.num_vaults;
  SpanScope span(log, "mem.vault_tick", 0);
  const auto start = SpanLog::Clock::now();
  for (sndp::Cycle c = 0; c < kTicks; ++c) {
    if (vault.can_accept()) {
      sndp::DramRequest req;
      req.line_addr = rng.next_below(1 << 16) * stride;
      req.is_write = rng.next_below(4) == 0;
      req.coord = amap.decode(req.line_addr);
      vault.enqueue(req);
    }
    vault.tick(c, sndp::tick_time_ps(c, cfg.clocks.dram_khz));
  }
  const double ns = elapsed_ns(start);
  g_replay_sink = completions;
  return ns / kTicks;
}

// noc: allocation-free hypercube routes between random stack pairs.
inline double replay_route(SpanLog* log, std::uint64_t seed) {
  constexpr std::size_t kRoutes = 1'000'000;
  const unsigned nodes = sndp::SystemConfig::paper().num_hmcs;
  sndp::Rng rng(seed ^ 0x20E7);
  std::vector<std::uint8_t> pairs(2 * kRoutes);
  for (auto& p : pairs) p = static_cast<std::uint8_t>(rng.next_below(nodes));
  unsigned buf[sndp::kMaxRouteNodes];
  std::uint64_t acc = 0;
  SpanScope span(log, "noc.route", 0);
  const auto start = SpanLog::Clock::now();
  for (std::size_t i = 0; i < kRoutes; ++i) {
    acc += sndp::hypercube_route(pairs[2 * i], pairs[2 * i + 1], buf);
  }
  const double ns = elapsed_ns(start);
  g_replay_sink = acc;
  return ns / kRoutes;
}

}  // namespace perfbench
