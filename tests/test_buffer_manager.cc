// Tests for the credit-based NDP buffer manager (§4.3).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "gpu/buffer_manager.h"

namespace sndp {
namespace {

NdpBufferConfig cfg() {
  NdpBufferConfig c;
  c.nsu_cmd_entries = 2;
  c.nsu_read_data_entries = 8;
  c.nsu_write_addr_entries = 4;
  return c;
}

TEST(BufferManager, GrantConsumesCredits) {
  NdpBufferManager mgr(cfg(), 2);
  EXPECT_TRUE(mgr.try_reserve(0, 3, 2));
  EXPECT_EQ(mgr.free_cmd(0), 1u);
  EXPECT_EQ(mgr.free_read_data(0), 5u);
  EXPECT_EQ(mgr.free_write_addr(0), 2u);
  // The other HMC's credits are untouched.
  EXPECT_EQ(mgr.free_cmd(1), 2u);
}

TEST(BufferManager, DenialLeavesCreditsIntact) {
  NdpBufferManager mgr(cfg(), 1);
  EXPECT_FALSE(mgr.try_reserve(0, 9, 0));  // too many read-data entries
  EXPECT_EQ(mgr.free_cmd(0), 2u);
  EXPECT_EQ(mgr.free_read_data(0), 8u);
  EXPECT_TRUE(mgr.all_idle());
}

TEST(BufferManager, CmdExhaustionBlocks) {
  NdpBufferManager mgr(cfg(), 1);
  EXPECT_TRUE(mgr.try_reserve(0, 1, 1));
  EXPECT_TRUE(mgr.try_reserve(0, 1, 1));
  EXPECT_FALSE(mgr.try_reserve(0, 1, 1));  // command entries gone
  mgr.release(0, 1, 0, 0);
  EXPECT_TRUE(mgr.try_reserve(0, 1, 0));
}

TEST(BufferManager, ZeroDataBlocksStillNeedCmd) {
  NdpBufferManager mgr(cfg(), 1);
  EXPECT_TRUE(mgr.try_reserve(0, 0, 0));
  EXPECT_EQ(mgr.free_cmd(0), 1u);
}

TEST(BufferManager, ReleaseRestoresIdle) {
  NdpBufferManager mgr(cfg(), 2);
  EXPECT_TRUE(mgr.try_reserve(1, 4, 3));
  EXPECT_FALSE(mgr.all_idle());
  mgr.release(1, 0, 4, 3);  // data credits (piggybacked on the ACK)
  mgr.release(1, 1, 0, 0);  // command credit (at spawn)
  EXPECT_TRUE(mgr.all_idle());
}

TEST(BufferManager, OverReleaseThrows) {
  NdpBufferManager mgr(cfg(), 1);
  EXPECT_THROW(mgr.release(0, 1, 0, 0), std::logic_error);
  EXPECT_TRUE(mgr.try_reserve(0, 2, 0));
  EXPECT_THROW(mgr.release(0, 0, 3, 0), std::logic_error);
}

TEST(BufferManager, StatsCountGrantsAndDenials) {
  NdpBufferManager mgr(cfg(), 1);
  mgr.try_reserve(0, 0, 0);
  mgr.try_reserve(0, 99, 0);
  StatSet stats;
  mgr.export_stats(stats);
  EXPECT_DOUBLE_EQ(stats.get("bufmgr.grants"), 1.0);
  EXPECT_DOUBLE_EQ(stats.get("bufmgr.denials"), 1.0);
  EXPECT_DOUBLE_EQ(stats.get("bufmgr.denials_rd"), 1.0);
}

// Property: a random sequence of reserve/release pairs never exceeds
// capacity and always returns to idle.
TEST(BufferManager, RandomizedConservation) {
  NdpBufferManager mgr(cfg(), 4);
  Rng rng(31);
  struct Grant {
    unsigned hmc, rd, wta;
  };
  std::vector<Grant> outstanding;
  for (int step = 0; step < 5000; ++step) {
    if (rng.bernoulli(0.6) || outstanding.empty()) {
      const unsigned hmc = static_cast<unsigned>(rng.next_below(4));
      const unsigned rd = static_cast<unsigned>(rng.next_below(5));
      const unsigned wta = static_cast<unsigned>(rng.next_below(3));
      if (mgr.try_reserve(hmc, rd, wta)) outstanding.push_back({hmc, rd, wta});
    } else {
      const std::size_t pick = rng.next_below(outstanding.size());
      const Grant g = outstanding[pick];
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(pick));
      mgr.release(g.hmc, 1, g.rd, g.wta);
    }
  }
  for (const Grant& g : outstanding) mgr.release(g.hmc, 1, g.rd, g.wta);
  EXPECT_TRUE(mgr.all_idle());
}

TEST(BufferManager, GrantsAndReleasesPokeOnlyWatchersOfTheirHmc) {
  NdpBufferManager mgr(cfg(), 3);
  bool w0 = false, w1 = false, w2 = false;
  mgr.watch(0, &w0);
  mgr.watch(1, &w1);
  mgr.watch(2, &w2);
  EXPECT_TRUE(mgr.try_reserve(1, 1, 1));
  EXPECT_TRUE(w1);
  EXPECT_FALSE(w0 || w2);
  w1 = false;
  mgr.release(1, 1, 0, 0);  // command credit
  EXPECT_TRUE(w1);
  w1 = false;
  mgr.release(1, 0, 1, 1);  // data credits
  EXPECT_TRUE(w1);
  EXPECT_FALSE(w0 || w2);
  w1 = false;
  mgr.unwatch(1, &w1);
  EXPECT_TRUE(mgr.try_reserve(1, 0, 0));
  EXPECT_FALSE(w1);
}

TEST(BufferManager, DenialsPokeNoOne) {
  NdpBufferManager mgr(cfg(), 2);
  EXPECT_TRUE(mgr.try_reserve(0, 0, 0));
  EXPECT_TRUE(mgr.try_reserve(0, 0, 0));
  bool w0 = false, w1 = false;
  mgr.watch(0, &w0);
  mgr.watch(1, &w1);
  EXPECT_FALSE(mgr.try_reserve(0, 0, 0));  // cmd
  EXPECT_FALSE(mgr.try_reserve(1, 9, 5));  // rd + wta
  EXPECT_NE(mgr.reserve_or_causes(0, 0, 0), 0u);
  EXPECT_FALSE(w0 || w1);
}

TEST(BufferManager, TenantCreditUseChangesPokeTheirHmc) {
  NdpBufferManager mgr(cfg(), 2);
  mgr.set_tenancy(2, 0.5);  // quota: 4 rd, 2 wta per tenant per HMC
  bool w0 = false, w1 = false;
  mgr.watch(0, &w0);
  mgr.watch(1, &w1);
  EXPECT_TRUE(mgr.try_reserve(1, 4, 0, 1));
  EXPECT_TRUE(w1);
  w1 = false;
  EXPECT_EQ(mgr.reserve_or_causes(1, 1, 0, 1), kDenyQos);  // tenant 1 at quota
  EXPECT_FALSE(w1);
  mgr.release(1, 0, 4, 0, 1);  // tenant 1's use drops: its refusal may lift
  EXPECT_TRUE(w1);
  EXPECT_FALSE(w0);
  EXPECT_EQ(mgr.reserve_or_causes(1, 1, 0, 1), 0u);
}

StatSet stats_of(const NdpBufferManager& mgr) {
  StatSet s;
  mgr.export_stats(s);
  return s;
}

// deny_again(reserve_or_causes(...)) counts exactly what try_reserve does,
// cause by cause.
TEST(BufferManager, DenyAgainMovesTheCountersTryReserveMoves) {
  struct Case {
    const char* name;
    unsigned hmc, rd, wta, tenant;
    unsigned causes;
  };
  // HMC 0 holds 2 cmd / 8 rd / 4 wta, minus the set-up grant below.
  const Case cases[] = {
      {"cmd", 1, 0, 0, 0, kDenyCmd},
      {"rd", 0, 8, 0, 0, kDenyRd},
      {"wta", 0, 0, 4, 0, kDenyWta},
      {"rd+wta", 0, 8, 4, 0, kDenyRd | kDenyWta},
      {"qos", 0, 4, 0, 0, kDenyQos},
  };
  for (const Case& c : cases) {
    NdpBufferManager polled(cfg(), 2), gated(cfg(), 2);
    for (NdpBufferManager* m : {&polled, &gated}) {
      m->set_tenancy(2, 0.5);  // quota: 4 rd, 2 wta per tenant per HMC
      ASSERT_TRUE(m->try_reserve(0, 1, 1, 0));  // tenant 0 holds 1 rd / 1 wta
      ASSERT_TRUE(m->try_reserve(1, 0, 0, 1));
      ASSERT_TRUE(m->try_reserve(1, 0, 0, 1));  // HMC 1's commands exhausted
    }
    EXPECT_FALSE(polled.try_reserve(c.hmc, c.rd, c.wta, c.tenant)) << c.name;
    const unsigned causes = gated.reserve_or_causes(c.hmc, c.rd, c.wta, c.tenant);
    EXPECT_EQ(causes, c.causes) << c.name;
    gated.deny_again(causes);
    EXPECT_EQ(stats_of(polled).values(), stats_of(gated).values()) << c.name;
    // Repeats, one by one or in bulk, keep the two in step.
    for (int i = 0; i < 3; ++i) polled.try_reserve(c.hmc, c.rd, c.wta, c.tenant);
    gated.deny_again(causes, 3);
    EXPECT_EQ(stats_of(polled).values(), stats_of(gated).values()) << c.name;
  }
}

// Property: a requester that re-runs its reservations only after a poke —
// and otherwise counts the last pass's refusals again with deny_again —
// exports the same stats as one that calls try_reserve on every attempt.
TEST(BufferManager, PokeGatedRetriesMatchPollingEveryAttempt) {
  constexpr unsigned kHmcs = 3;
  constexpr unsigned kTenants = 2;
  NdpBufferManager polled(cfg(), kHmcs), gated(cfg(), kHmcs);
  polled.set_tenancy(kTenants, 0.5);
  gated.set_tenancy(kTenants, 0.5);
  struct Waiter {
    unsigned hmc, rd, wta, tenant;
    unsigned causes;
  };
  struct Grant {
    unsigned hmc, rd, wta, tenant;
  };
  bool moved = false;
  for (unsigned h = 0; h < kHmcs; ++h) gated.watch(h, &moved);
  Rng rng(77);
  std::vector<Waiter> waiters;
  std::vector<Grant> outstanding;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t r = rng.next_below(10);
    if (r < 2 && waiters.size() < 6) {
      waiters.push_back({static_cast<unsigned>(rng.next_below(kHmcs)),
                         static_cast<unsigned>(rng.next_below(5)),
                         static_cast<unsigned>(rng.next_below(3)),
                         static_cast<unsigned>(rng.next_below(kTenants)), 0});
      moved = true;  // a new waiter has no refusal to repeat yet
    } else if (r < 4 && !outstanding.empty()) {
      const std::size_t pick = rng.next_below(outstanding.size());
      const Grant g = outstanding[pick];
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(pick));
      // Command and data credits come home separately, as in the simulator.
      for (NdpBufferManager* m : {&polled, &gated}) {
        m->release(g.hmc, 1, 0, 0, g.tenant);
        m->release(g.hmc, 0, g.rd, g.wta, g.tenant);
      }
    } else {
      // One retry pass over every waiter, in order.
      const bool real = moved;
      moved = false;
      for (std::size_t i = 0; i < waiters.size();) {
        Waiter& w = waiters[i];
        const bool polled_ok = polled.try_reserve(w.hmc, w.rd, w.wta, w.tenant);
        if (real) w.causes = gated.reserve_or_causes(w.hmc, w.rd, w.wta, w.tenant);
        const bool gated_ok = w.causes == 0;
        if (!gated_ok) gated.deny_again(w.causes);
        ASSERT_EQ(polled_ok, gated_ok) << "step " << step;
        if (gated_ok) {
          outstanding.push_back({w.hmc, w.rd, w.wta, w.tenant});
          waiters.erase(waiters.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
    }
  }
  const StatSet a = stats_of(polled);
  EXPECT_GT(a.get("bufmgr.denials"), 1000.0);
  EXPECT_GT(a.get("bufmgr.denials_qos"), 0.0);
  EXPECT_GT(a.get("bufmgr.denials_cmd"), 0.0);
  EXPECT_EQ(a.values(), stats_of(gated).values());
}

}  // namespace
}  // namespace sndp
