// Packet formats for baseline memory traffic and the NDP partitioned
// execution protocol (paper Fig. 4).
//
// Sizes model what would be on the wire; the `lane_*` vectors carry the
// functional payload (real addresses and data values) so the simulator can
// verify end-to-end results, but only the bytes a real packet would carry
// are charged to links and energy.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace sndp {

enum class PacketType : std::uint8_t {
  // Baseline execution model.
  kMemRead,      // GPU -> vault: fetch a cache line
  kMemReadResp,  // vault -> GPU: 128 B line
  kMemWrite,     // GPU -> vault: write-through words
  kMemWriteAck,  // vault -> GPU
  // Partitioned-execution protocol (Fig. 2(b), Fig. 4).
  kOfldCmd,      // GPU SM -> target NSU: start PC, mask, live-in registers
  kRdf,          // GPU -> owning vault: read-and-forward request
  kRdfResp,      // vault or GPU cache -> target NSU: requested words only
  kWta,          // GPU -> target NSU: write addresses for a store
  kNsuWrite,     // NSU -> destination vault: computed store data
  kNsuWriteAck,  // vault -> NSU
  kCacheInval,   // vault -> GPU: invalidate stale cached line (§4.2)
  kOfldAck,      // NSU -> GPU SM: block done, live-out registers
  kCredit,       // NSU -> GPU buffer manager: freed buffer entries (§4.3)
  // Page-migration copy flow (migration placement policy): a re-homed page
  // is read line-by-line at the old home, shipped as one bulk packet over
  // the cube links, and written line-by-line at the new home.
  kPageCopyRead,   // vault read of one page line at the old home; also the
                   // (rare) cross-stack kick when the re-home was triggered
                   // at a stack that no longer holds the page
  kPageCopy,       // old home -> new home: the full page payload
  kPageCopyWrite,  // vault write of one page line at the new home
};

const char* packet_type_name(PacketType t);

inline constexpr std::size_t kNumPacketTypes = 17;  // kMemRead..kPageCopyWrite

// Request-lifecycle latency stamp (src/obs/latency.*).  Rides along with the
// packet (and across request->response transfers) accumulating per-segment
// time; inert unless LatencyTracer::start() activated it.  POD on purpose —
// copied wholesale wherever packets are copied or parked.
struct PacketTiming {
  TimePs origin_ps = 0;         // span open (request creation)
  TimePs last_ps = 0;           // last accounted-for instant
  std::uint64_t queue_ps = 0;   // LatSegment::kQueue accumulation
  std::uint64_t link_ps = 0;    // LatSegment::kLink
  std::uint64_t dram_ps = 0;    // LatSegment::kDram
  std::uint64_t cache_ps = 0;   // LatSegment::kCache
  std::uint32_t span_id = 0;    // 1-based sampled-span handle; 0 = unsampled
  std::uint8_t path = 0;        // pre-assigned PathClass (set_path)
  bool has_path = false;
  bool active = false;
};

// Control packets (requests, commands, addresses, credits, acks) ride the
// links' control virtual channel and preempt bulk data (responses, line
// fills, write data).
bool is_control_packet(PacketType t);

// Urgent packets (offload commands, acks, credits, invalidations) preempt
// even control traffic — their latency sets the NDP credit-recycle rate.
bool is_urgent_packet(PacketType t);

// Fig. 4: "SM ID | Warp ID | Seq. num" plus the static block and a unique
// instance number used for internal consistency checks.
struct OffloadPacketId {
  SmId sm = kInvalidId;
  WarpId warp = kInvalidId;
  std::uint32_t seq = 0;       // per memory instruction within the block
  std::uint32_t block = 0;     // static offload block id
  std::uint64_t instance = 0;  // unique per offload-block execution

  // Buffer lookups match on the warp's current offload execution; seq
  // distinguishes entries within it.
  friend bool operator==(const OffloadPacketId&, const OffloadPacketId&) = default;
};

struct Packet {
  PacketType type = PacketType::kMemRead;
  std::uint16_t src_node = 0;  // 0..H-1: HMC; H: the GPU
  std::uint16_t dst_node = 0;
  std::uint32_t size_bytes = 0;  // on-wire size incl. header

  OffloadPacketId oid{};
  Addr line_addr = 0;
  std::uint64_t token = 0;  // requester cookie (baseline path, vault round-trip)

  // Originating tenant (DESIGN.md "Multi-tenant serving").  Stamped at
  // packet creation (SM or NSU), copied onto every response, and used for
  // tenant-keyed latency/outcome counters and QoS credit accounting.
  // Always 0 on the single-tenant path.
  std::uint8_t tenant = 0;

  LaneMask mask = 0;           // lanes this packet covers
  LaneMask expected_mask = 0;  // all lanes of the memory instruction (merge test)
  std::uint8_t target_nsu = 0;
  std::uint8_t mem_width = 0;
  bool mem_f32 = false;
  bool misaligned = false;

  // Functional payload, indexed by lane (valid where `mask` has the bit).
  std::vector<Addr> lane_addrs;
  std::vector<RegValue> lane_data;
  // Register marshalling (kOfldCmd / kOfldAck): ids + per-lane values laid
  // out as values[reg_index * kWarpWidth + lane].
  std::vector<std::uint8_t> reg_ids;
  std::vector<RegValue> reg_values;
  std::vector<std::uint8_t> lane_preds;  // packed predicate bits per lane

  // kCredit payload.
  std::uint16_t credit_cmd = 0;
  std::uint16_t credit_read_data = 0;
  std::uint16_t credit_write_addr = 0;

  // Latency-tracer stamp; inert until LatencyTracer::start().
  PacketTiming lt{};
};

// --- On-wire size calculators (header + Fig. 4 fields). -------------------
inline constexpr unsigned kPktHeaderBytes = 8;
inline constexpr unsigned kOidBytes = 4;
inline constexpr unsigned kAddrBytes = 8;
inline constexpr unsigned kMaskBytes = 4;
inline constexpr unsigned kTargetBytes = 1;
inline constexpr unsigned kRegBytes = 8;
inline constexpr unsigned kLineBytes = 128;

unsigned popcount_mask(LaneMask m);

// Offload command: oid + start PC + mask + target (+ registers + preds).
unsigned cmd_packet_bytes(unsigned num_regs, unsigned active_lanes, bool with_preds);
// RDF request / WTA: oid + base address + mask + target (+ per-lane offsets
// when misaligned).
unsigned rdf_wta_packet_bytes(unsigned active_lanes, bool misaligned);
// RDF response: oid + base + mask + only the words actually accessed.
unsigned rdf_resp_packet_bytes(unsigned active_lanes, unsigned width);
// NSU write: address + data words (+ offsets when misaligned).
unsigned nsu_write_packet_bytes(unsigned active_lanes, unsigned width, bool misaligned);
unsigned ofld_ack_packet_bytes(unsigned num_regs, unsigned active_lanes);
unsigned small_packet_bytes();             // acks / credits
unsigned inval_packet_bytes();             // cache invalidation
unsigned mem_read_req_bytes();             // baseline line fetch request
unsigned mem_read_resp_bytes();            // baseline line fetch response
unsigned mem_write_req_bytes(unsigned touched_bytes);  // write-through words

std::string to_string(const Packet& p);

}  // namespace sndp
