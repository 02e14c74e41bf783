// Credit-based NDP buffer manager (paper §4.3, deadlock prevention).
//
// Lives on the GPU and tracks, per HMC, the free entries of the NSU's
// offload-command, read-data and write-address buffers.  An SM reserves all
// buffers a block needs atomically at OFLD.BEG; the NSU returns credits as
// entries free up (command credit when a warp slot is claimed, data credits
// piggybacked on the offload ACK).  Reservations never exceed capacity, so
// every in-flight packet is guaranteed an ejection slot — no deadlock.
//
// Waiting SMs do not poll unchanged credit state (DESIGN.md "Scheduler and
// fast-forward"): every grant and release on an HMC pokes the SMs watching
// it.  Until the next poke a repeat attempt must fail the same way, so the
// SM counts it with deny_again() instead of re-running the reservation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/stats.h"

namespace sndp {

// Why a reservation was refused (bit set; 0 means granted).  kDenyQos is
// reported only when the physical buffers had room.
inline constexpr unsigned kDenyCmd = 1u;
inline constexpr unsigned kDenyRd = 2u;
inline constexpr unsigned kDenyWta = 4u;
inline constexpr unsigned kDenyQos = 8u;

class NdpBufferManager {
 public:
  NdpBufferManager(const NdpBufferConfig& cfg, unsigned num_hmcs);

  // QoS credit partitioning (DESIGN.md "Multi-tenant serving"): cap the
  // rd/wta entries one tenant may hold per HMC at ceil(share * capacity).
  // share == 0 (the default) disables partitioning entirely — reserve and
  // release then ignore the tenant argument, which keeps the single-tenant
  // path bit-identical.
  void set_tenancy(unsigned num_tenants, double credit_share);

  // Atomically reserve (1 offload command, `rd` read-data entries, `wta`
  // write-address entries) on `hmc` for `tenant`.  Returns 0 on a grant, or
  // the kDeny* bits (reserving and counting nothing) when any buffer — or
  // the tenant's QoS share — lacks space.
  unsigned reserve_or_causes(unsigned hmc, unsigned rd, unsigned wta, unsigned tenant = 0);

  // Count `times` denials with `causes` (as returned by reserve_or_causes),
  // exactly as that many refused try_reserve calls would.
  void deny_again(unsigned causes, std::uint64_t times = 1);

  // reserve_or_causes, counting a refusal.  Returns true on a grant.
  bool try_reserve(unsigned hmc, unsigned rd, unsigned wta, unsigned tenant = 0);

  // Credits returned by the NSU (tenant from the credit/ACK packet).
  void release(unsigned hmc, unsigned cmd, unsigned rd, unsigned wta,
               unsigned tenant = 0);

  // Set `*moved` on every grant and release on `hmc` (which covers every
  // change of a tenant's credit use there); a denial sets nothing.  An SM
  // watches each HMC it has credit waiters on.  `*moved` must stay alive
  // until unwatch() or until no grant or release follows (a run can end
  // with waiters left; the SMs then die before the manager).
  void watch(unsigned hmc, bool* moved);
  void unwatch(unsigned hmc, bool* moved);

  unsigned free_cmd(unsigned hmc) const { return credits_.at(hmc).cmd; }
  unsigned free_read_data(unsigned hmc) const { return credits_.at(hmc).rd; }
  unsigned free_write_addr(unsigned hmc) const { return credits_.at(hmc).wta; }

  // All credits back home (used as an end-of-run invariant).
  bool all_idle() const;

  // Capacities for the flow audit's credit-conservation checks.
  const NdpBufferConfig& config() const { return cfg_; }
  unsigned num_hmcs() const { return static_cast<unsigned>(credits_.size()); }

  void export_stats(StatSet& out) const;

 private:
  struct Credits {
    unsigned cmd, rd, wta;
  };
  struct TenantUse {
    unsigned rd = 0, wta = 0;
  };
  void poke(unsigned hmc);

  NdpBufferConfig cfg_;
  std::vector<Credits> credits_;
  std::vector<std::vector<bool*>> watchers_;
  // Per-(hmc, tenant) held entries; empty unless credit partitioning is on.
  std::vector<std::vector<TenantUse>> tenant_use_;
  unsigned quota_rd_ = 0;
  unsigned quota_wta_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t denials_ = 0;
  std::uint64_t denials_cmd_ = 0;
  std::uint64_t denials_rd_ = 0;
  std::uint64_t denials_wta_ = 0;
  std::uint64_t denials_qos_ = 0;
};

}  // namespace sndp
