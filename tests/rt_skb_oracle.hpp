// Reference for the skb metadata of a packet the rt engine delivers. The
// generator hands workers a bare slab (overlay mode: frame bytes only) and
// a descriptor; the worker builds the metadata from the descriptor. This
// derives the expected fields from the engine config and the descriptor
// alone, written out independently of rt::flow_of.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "rt/engine.hpp"
#include "rt/reassembler.hpp"

namespace mflow::test {

/// The first skb field of delivered packet `pkt` that differs from its
/// reference, or "" when every field matches. Overlay packets are
/// delivered decapsulated, so `encapsulated` is false in every mode.
inline std::string skb_mismatch(const rt::EngineConfig& cfg,
                                const rt::RtPacket& pkt) {
  if (!pkt.skb) return "no skb";
  const net::Packet& skb = *pkt.skb;
  std::uint64_t fid = pkt.batch;
  std::uint64_t port = 0;
  if (cfg.overlay.enabled) {
    fid = pkt.batch % std::max<std::uint32_t>(cfg.overlay.flows, 1) + 1;
    port = 40000 + ((fid - 1) & 0x3FFF);
  } else {
    if (cfg.flow_table.enabled)
      fid = pkt.batch / std::max<std::uint64_t>(
                            cfg.flow_table.flow_lifetime_batches, 1) + 1;
    port = 40000 + (fid & 0x3FFF);
  }
  const net::FlowKey key{net::Ipv4Addr(10, 0, 1, 2),
                         net::Ipv4Addr(10, 0, 1, 3),
                         static_cast<std::uint16_t>(port), 5000,
                         net::Ipv4Header::kProtoUdp};
  if (skb.flow != key) return "flow";
  if (skb.flow_id != fid) return "flow_id";
  if (skb.payload_len != net::kTcpMss) return "payload_len";
  if (skb.encapsulated) return "encapsulated";
  if (skb.wire_seq != pkt.seq) return "wire_seq";
  if (skb.microflow_id != pkt.batch) return "microflow_id";
  if (skb.gro_segs != 1) return "gro_segs";
  return "";
}

}  // namespace mflow::test
