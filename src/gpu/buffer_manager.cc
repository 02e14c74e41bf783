#include "gpu/buffer_manager.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sndp {

NdpBufferManager::NdpBufferManager(const NdpBufferConfig& cfg, unsigned num_hmcs) : cfg_(cfg) {
  credits_.resize(num_hmcs, Credits{cfg.nsu_cmd_entries, cfg.nsu_read_data_entries,
                                    cfg.nsu_write_addr_entries});
  watchers_.resize(num_hmcs);
}

void NdpBufferManager::set_tenancy(unsigned num_tenants, double credit_share) {
  if (credit_share <= 0.0 || num_tenants == 0) {
    tenant_use_.clear();
    return;
  }
  const double share = credit_share > 1.0 ? 1.0 : credit_share;
  quota_rd_ = static_cast<unsigned>(
      std::ceil(share * static_cast<double>(cfg_.nsu_read_data_entries)));
  quota_wta_ = static_cast<unsigned>(
      std::ceil(share * static_cast<double>(cfg_.nsu_write_addr_entries)));
  tenant_use_.assign(credits_.size(), std::vector<TenantUse>(num_tenants));
}

unsigned NdpBufferManager::reserve_or_causes(unsigned hmc, unsigned rd, unsigned wta,
                                             unsigned tenant) {
  Credits& c = credits_.at(hmc);
  if (c.cmd < 1 || c.rd < rd || c.wta < wta) {
    return (c.cmd < 1 ? kDenyCmd : 0u) | (c.rd < rd ? kDenyRd : 0u) |
           (c.wta < wta ? kDenyWta : 0u);
  }
  if (!tenant_use_.empty()) {
    TenantUse& u = tenant_use_.at(hmc).at(tenant);
    if (u.rd + rd > quota_rd_ || u.wta + wta > quota_wta_) return kDenyQos;
    u.rd += rd;
    u.wta += wta;
  }
  c.cmd -= 1;
  c.rd -= rd;
  c.wta -= wta;
  ++grants_;
  poke(hmc);
  return 0;
}

void NdpBufferManager::deny_again(unsigned causes, std::uint64_t times) {
  denials_ += times;
  if (causes & kDenyCmd) denials_cmd_ += times;
  if (causes & kDenyRd) denials_rd_ += times;
  if (causes & kDenyWta) denials_wta_ += times;
  if (causes & kDenyQos) denials_qos_ += times;
}

bool NdpBufferManager::try_reserve(unsigned hmc, unsigned rd, unsigned wta, unsigned tenant) {
  const unsigned causes = reserve_or_causes(hmc, rd, wta, tenant);
  if (causes != 0) deny_again(causes);
  return causes == 0;
}

void NdpBufferManager::release(unsigned hmc, unsigned cmd, unsigned rd, unsigned wta,
                               unsigned tenant) {
  Credits& c = credits_.at(hmc);
  c.cmd += cmd;
  c.rd += rd;
  c.wta += wta;
  if (c.cmd > cfg_.nsu_cmd_entries || c.rd > cfg_.nsu_read_data_entries ||
      c.wta > cfg_.nsu_write_addr_entries) {
    throw std::logic_error("NdpBufferManager: credit overflow (double release)");
  }
  if (!tenant_use_.empty()) {
    TenantUse& u = tenant_use_.at(hmc).at(tenant);
    if (u.rd < rd || u.wta < wta) {
      throw std::logic_error("NdpBufferManager: tenant credit underflow");
    }
    u.rd -= rd;
    u.wta -= wta;
  }
  poke(hmc);
}

void NdpBufferManager::poke(unsigned hmc) {
  for (bool* moved : watchers_[hmc]) *moved = true;
}

void NdpBufferManager::watch(unsigned hmc, bool* moved) { watchers_.at(hmc).push_back(moved); }

void NdpBufferManager::unwatch(unsigned hmc, bool* moved) {
  std::vector<bool*>& w = watchers_.at(hmc);
  w.erase(std::find(w.begin(), w.end(), moved));
}

bool NdpBufferManager::all_idle() const {
  for (const Credits& c : credits_) {
    if (c.cmd != cfg_.nsu_cmd_entries || c.rd != cfg_.nsu_read_data_entries ||
        c.wta != cfg_.nsu_write_addr_entries) {
      return false;
    }
  }
  return true;
}

void NdpBufferManager::export_stats(StatSet& out) const {
  out.set("bufmgr.grants", static_cast<double>(grants_));
  out.set("bufmgr.denials", static_cast<double>(denials_));
  out.set("bufmgr.denials_cmd", static_cast<double>(denials_cmd_));
  out.set("bufmgr.denials_rd", static_cast<double>(denials_rd_));
  out.set("bufmgr.denials_wta", static_cast<double>(denials_wta_));
  if (!tenant_use_.empty()) {
    out.set("bufmgr.denials_qos", static_cast<double>(denials_qos_));
  }
}

}  // namespace sndp
