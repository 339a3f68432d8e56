// Stateful-NF layer tests (src/nf): unit checks of the replicated pure
// computations (Maglev, NAT port/rewrite, firewall conntrack) and the
// property SCR rests on — merging per-core state replicas yields EXACTLY
// the state a single shared-lock oracle would hold, for any partition of
// the packet stream across cores, any per-core reordering, any lost
// subset, and a live rescale (repartition mid-stream). Plus end-to-end
// digest-equality runs through both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "control/flowtable.hpp"
#include "experiment/scenario.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "nf/nf.hpp"
#include "rt/engine.hpp"
#include "util/rng.hpp"

using namespace mflow;

namespace {

net::FlowKey key_of(int i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(i)),
                      net::Ipv4Addr(10, 0, 2, 1),
                      static_cast<std::uint16_t>(40000 + i), 5000,
                      net::Ipv4Header::kProtoTcp};
}

}  // namespace

// --- Maglev ----------------------------------------------------------------

TEST(NfMaglev, DeterministicAndCoversEveryBackend) {
  const auto a = nf::MaglevTable::build(8, 251, 0xfeed);
  const auto b = nf::MaglevTable::build(8, 251, 0xfeed);
  ASSERT_EQ(a.size(), 251u);
  std::size_t total = 0, lo = 251, hi = 0;
  for (std::uint32_t be = 0; be < 8; ++be) {
    const std::size_t n = a.slots_of(be);
    EXPECT_GT(n, 0u) << "backend " << be << " owns no slots";
    total += n;
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_EQ(total, a.size());
  // Maglev's whole point: near-even slot ownership.
  EXPECT_LE(hi, 2 * lo);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(a.backend_for(key_of(i)), b.backend_for(key_of(i)));
}

TEST(NfMaglev, SeedChangesTheMapping) {
  const auto a = nf::MaglevTable::build(8, 251, 1);
  const auto b = nf::MaglevTable::build(8, 251, 2);
  int diff = 0;
  for (int i = 0; i < 64; ++i)
    diff += a.backend_for(key_of(i)) != b.backend_for(key_of(i));
  EXPECT_GT(diff, 0);
}

// --- dynamic NAT ------------------------------------------------------------

TEST(NfNat, PortDeterministicAndInRange) {
  nf::ChainConfig cfg;
  cfg.nat_port_base = 2048;
  cfg.nat_port_span = 1000;
  for (int i = 0; i < 256; ++i) {
    const auto p = nf::nat_port_for(cfg, key_of(i));
    EXPECT_GE(p, cfg.nat_port_base);
    EXPECT_LT(p, cfg.nat_port_base + cfg.nat_port_span);
    EXPECT_EQ(p, nf::nat_port_for(cfg, key_of(i)));  // pure in the key
  }
}

TEST(NfNat, RewritesRealHeaderBytes) {
  nf::ChainConfig cfg;
  auto pkt = net::make_udp_datagram(key_of(3), 1200);
  ASSERT_TRUE(nf::nat_rewrite(cfg, *pkt, 7777));
  const auto bytes = pkt->buf.data();
  const auto ip =
      net::Ipv4Header::decode(bytes.subspan(net::EthernetHeader::kSize));
  EXPECT_EQ(ip.src, cfg.nat_external);
  EXPECT_EQ(ip.dst, key_of(3).dst);  // destination untouched
  EXPECT_TRUE(net::Ipv4Header::verify(
      bytes.subspan(net::EthernetHeader::kSize)));  // checksum recomputed
  const auto udp = net::UdpHeader::decode(bytes.subspan(
      net::EthernetHeader::kSize + net::Ipv4Header::kSize));
  EXPECT_EQ(udp.src_port, 7777);
  EXPECT_EQ(udp.dst_port, key_of(3).dst_port);
  // Flow METADATA stays: downstream delivery keys on it.
  EXPECT_EQ(pkt->flow, key_of(3));

  auto tcp = net::make_tcp_segment(key_of(4), 0, 1000);
  ASSERT_TRUE(nf::nat_rewrite(cfg, *tcp, 4242));
  const auto th = net::TcpHeader::decode(tcp->buf.data().subspan(
      net::EthernetHeader::kSize + net::Ipv4Header::kSize));
  EXPECT_EQ(th.src_port, 4242);

  auto empty = net::make_packet();  // no parseable headers
  EXPECT_FALSE(nf::nat_rewrite(cfg, *empty, 1));
}

// --- firewall conntrack ------------------------------------------------------

TEST(NfFirewall, PhaseDerivedMonotonicallyFromFlags) {
  nf::ChainConfig cfg;
  cfg.chain = {nf::Kind::kFirewall};
  nf::FlowState st;
  nf::PacketView v;
  v.flow = key_of(1);
  v.wire_bytes = 60;

  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kNew);
  v.tcp_flags = nf::kTcpFlagSyn;
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, st);
  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kSynSent);
  v.tcp_flags = nf::kTcpFlagSyn | nf::kTcpFlagAck;
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, st);
  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kEstablished);
  v.tcp_flags = nf::kTcpFlagAck;  // data
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, st);
  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kEstablished);
  v.tcp_flags = nf::kTcpFlagFin | nf::kTcpFlagAck;
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, st);
  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kClosing);
  EXPECT_EQ(st.fw.segs, 4u);

  // Unsolicited bare data only: never leaves kNew.
  nf::FlowState cold;
  v.tcp_flags = nf::kTcpFlagAck;
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, cold);
  EXPECT_EQ(cold.fw.phase(), nf::FwPhase::kNew);
}

TEST(NfFirewall, ViewDecodesRealTcpFlagBytes) {
  auto pkt = net::make_tcp_segment(key_of(2), 0, 0);
  // Wire TCP flags byte: offset 13 into the TCP header (FIN=0x01, SYN=0x02,
  // ACK=0x10). Patch the real bytes and check view_of decodes them.
  auto bytes = pkt->buf.data();
  std::uint8_t* flags =
      &bytes[net::EthernetHeader::kSize + net::Ipv4Header::kSize + 13];
  *flags = 0x02;  // SYN
  EXPECT_EQ(nf::view_of(*pkt).tcp_flags, nf::kTcpFlagSyn);
  *flags = 0x12;  // SYN|ACK
  EXPECT_EQ(nf::view_of(*pkt).tcp_flags, nf::kTcpFlagSyn | nf::kTcpFlagAck);
  *flags = 0x11;  // FIN|ACK
  EXPECT_EQ(nf::view_of(*pkt).tcp_flags, nf::kTcpFlagFin | nf::kTcpFlagAck);
  EXPECT_EQ(nf::view_of(*pkt).flow, key_of(2));
}

// --- the SCR exactness property ---------------------------------------------
//
// For a random packet stream: process it (a) in order through ONE state
// table (the shared-lock oracle) and (b) split across K per-core replica
// tables under a random partition, each replica's share randomly reordered,
// with a repartition ("live rescale") half-way — then merge the replicas.
// The merged state must be bit-identical to the oracle, per flow, and the
// fold digests must agree. Loss: a random subset of packets is dropped from
// BOTH sides (a lost packet is lost before the NF everywhere).
TEST(NfScr, MergeEqualsSharedLockOracleUnderSplitReorderLossRescale) {
  nf::ChainConfig cfg;
  cfg.chain = {nf::Kind::kNat, nf::Kind::kFirewall, nf::Kind::kLoadBalancer};
  const auto maglev =
      nf::MaglevTable::build(cfg.lb_backends, cfg.lb_table_size, cfg.lb_seed);
  constexpr int kFlows = 6;
  constexpr int kPackets = 400;

  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);

    // Generate the stream: (flow id, view) with plausible TCP flag order
    // not required — the lattice is order-insensitive by design, and the
    // oracle defines whatever "correct" is.
    struct Synth {
      net::FlowId fid;
      nf::PacketView view;
    };
    std::vector<Synth> stream;
    stream.reserve(kPackets);
    for (int i = 0; i < kPackets; ++i) {
      if (rng.chance(0.1)) continue;  // loss: dropped before any NF
      const auto fid = static_cast<net::FlowId>(rng.uniform(kFlows));
      nf::PacketView v;
      v.flow = key_of(static_cast<int>(fid));
      v.wire_bytes = 54 + static_cast<std::uint32_t>(rng.uniform(1446));
      v.segs = 1 + static_cast<std::uint32_t>(rng.uniform(4));  // GRO skb
      const std::uint8_t flag_sets[] = {
          nf::kTcpFlagSyn, nf::kTcpFlagSyn | nf::kTcpFlagAck,
          nf::kTcpFlagAck, nf::kTcpFlagFin | nf::kTcpFlagAck, 0};
      v.tcp_flags = flag_sets[rng.uniform(5)];
      stream.push_back({fid, v});
    }

    const auto run_chain = [&](const Synth& s, nf::FlowState& st) {
      for (const auto kind : cfg.chain)
        nf::apply(cfg, &maglev, kind, s.view, st);
    };

    // (a) shared-lock oracle: one table, in arrival order.
    std::map<net::FlowId, nf::FlowState> oracle;
    for (const auto& s : stream) run_chain(s, oracle[s.fid]);

    // (b) SCR replicas under two partition regimes (live rescale half-way:
    // the split degree AND the packet->core mapping both change).
    const std::size_t k1 = 1 + rng.uniform(4);
    const std::size_t k2 = 1 + rng.uniform(4);
    const std::size_t cores = std::max(k1, k2);
    std::vector<std::vector<Synth>> shares(cores);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::size_t k = i < stream.size() / 2 ? k1 : k2;
      shares[rng.uniform(k)].push_back(stream[i]);
    }
    std::vector<std::map<net::FlowId, nf::FlowState>> replicas(cores);
    for (std::size_t c = 0; c < cores; ++c) {
      std::shuffle(shares[c].begin(), shares[c].end(), rng);  // reorder
      for (const auto& s : shares[c]) run_chain(s, replicas[c][s.fid]);
    }
    std::map<net::FlowId, nf::FlowState> merged;
    for (const auto& rep : replicas)
      for (const auto& [fid, st] : rep) nf::merge(merged[fid], st);

    ASSERT_EQ(merged.size(), oracle.size()) << "seed " << seed;
    for (const auto& [fid, st] : oracle)
      EXPECT_EQ(merged.at(fid), st) << "seed " << seed << " flow " << fid;
    std::uint64_t ho = 0, hm = 0;
    for (const auto& [fid, st] : oracle) ho = nf::fold_digest(ho, fid, st);
    for (const auto& [fid, st] : merged) hm = nf::fold_digest(hm, fid, st);
    EXPECT_EQ(ho, hm) << "seed " << seed;
  }
}

// --- per-run fold -------------------------------------------------------------
//
// nf::RunFold is what the rt workers drive: consecutive packets of one
// (flow, micro-flow batch) fold into a local delta, merged into the table
// once per run, and each worker chunk flushes its open run. Streams here
// switch flows mid-chunk, bring flows back in non-adjacent runs, and mix
// in runs of length 1. Every strategy's table layout must end up holding,
// per flow, exactly what per-packet nf::apply computes in order — and the
// shared-lock table must be entered once per run.
TEST(NfRunFold, EqualsPerPacketApplyUnderEveryStrategy) {
  nf::ChainConfig cfg;
  cfg.chain = {nf::Kind::kNat, nf::Kind::kFirewall, nf::Kind::kLoadBalancer};
  const auto maglev =
      nf::MaglevTable::build(cfg.lb_backends, cfg.lb_table_size, cfg.lb_seed);
  struct Pkt {
    net::FlowId fid;
    std::uint64_t batch;
    nf::PacketView view;
  };
  const auto view_for = [](net::FlowId fid, util::Rng& rng) {
    nf::PacketView v;
    v.flow = key_of(static_cast<int>(fid));
    v.wire_bytes = 54 + static_cast<std::uint32_t>(rng.uniform(1446));
    v.segs = 1 + static_cast<std::uint32_t>(rng.uniform(3));
    const std::uint8_t flag_sets[] = {nf::kTcpFlagSyn,
                                      nf::kTcpFlagSyn | nf::kTcpFlagAck,
                                      nf::kTcpFlagAck, nf::kTcpFlagFin, 0};
    v.tcp_flags = flag_sets[rng.uniform(5)];
    return v;
  };

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    // Stream of runs: flow drawn from a small set (so flows recur in
    // non-adjacent runs), lengths 1..6 with length 1 common. Then cut into chunks at random points, so a chunk
    // boundary can split a run and a chunk can hold several flows.
    std::vector<Pkt> stream;
    std::uint64_t batch = 0;
    for (int r = 0; r < 120; ++r) {
      const auto fid = static_cast<net::FlowId>(1 + rng.uniform(5));
      // A new batch usually opens with the run; when it does not, a flow
      // switch alone must end the run.
      if (rng.chance(0.7)) ++batch;
      const std::uint64_t len = rng.chance(0.4) ? 1 : 1 + rng.uniform(6);
      for (std::uint64_t k = 0; k < len; ++k)
        stream.push_back({fid, batch, view_for(fid, rng)});
    }
    std::vector<std::size_t> cuts = {0};
    while (cuts.back() < stream.size())
      cuts.push_back(std::min(stream.size(), cuts.back() + 1 + rng.uniform(9)));

    std::map<net::FlowId, nf::FlowState> oracle;
    for (const auto& p : stream)
      for (const auto kind : cfg.chain)
        nf::apply(cfg, &maglev, kind, p.view, oracle[p.fid]);
    std::uint64_t runs = 0;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
      for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i)
        runs += i == cuts[c] || stream[i].fid != stream[i - 1].fid ||
                stream[i].batch != stream[i - 1].batch;

    for (const auto strat :
         {nf::Strategy::kSharedLock, nf::Strategy::kFlowAffinity,
          nf::Strategy::kScr}) {
      // kSharedLock: one sharded table, every run one critical section.
      // kScr: chunks dealt round-robin over two replicas (the split).
      // kFlowAffinity: each flow pinned to one replica.
      const std::size_t tables = strat == nf::Strategy::kSharedLock ? 1 : 2;
      std::vector<std::unique_ptr<control::FlowTable<nf::FlowState>>> tbl;
      for (std::size_t t = 0; t < tables; ++t)
        tbl.push_back(std::make_unique<control::FlowTable<nf::FlowState>>(
            control::FlowTableParams{8, 1024, 0}));
      std::uint64_t merges = 0;
      nf::RunFold fold(cfg, &maglev);
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        const auto sink = [&](net::FlowId fid, std::uint64_t b,
                              const nf::FlowState& delta) {
          ++merges;
          const std::size_t t =
              strat == nf::Strategy::kSharedLock ? 0
              : strat == nf::Strategy::kScr      ? c % 2
                                                 : fid % 2;
          tbl[t]->upsert_apply(fid, static_cast<sim::Time>(b),
                               [&](nf::FlowState& st) { nf::merge(st, delta); });
        };
        for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) {
          const auto& p = stream[i];
          const nf::FlowState& run = fold.add(p.fid, p.batch, p.view, sink);
          // The binding a packet reads mid-run is the table's binding.
          EXPECT_EQ(run.nat.ext_port, nf::nat_port_for(cfg, p.view.flow));
          EXPECT_EQ(run.lb.backend, maglev.backend_for(p.view.flow) + 1);
        }
        fold.flush(sink);
      }
      EXPECT_EQ(merges, runs) << "seed " << seed;

      std::map<net::FlowId, nf::FlowState> merged;
      for (const auto& t : tbl)
        t->for_each([&](net::FlowId fid, const nf::FlowState& st) {
          nf::merge(merged[fid], st);
        });
      ASSERT_EQ(merged.size(), oracle.size()) << "seed " << seed;
      for (const auto& [fid, st] : oracle)
        EXPECT_EQ(merged.at(fid), st)
            << nf::strategy_name(strat) << " seed " << seed << " flow "
            << fid;
    }
  }
}

TEST(NfRunFold, FlushWithoutOpenRunIsANoOp) {
  nf::ChainConfig cfg;
  nf::RunFold fold(cfg, nullptr);
  int calls = 0;
  const auto sink = [&](net::FlowId, std::uint64_t, const nf::FlowState&) {
    ++calls;
  };
  fold.flush(sink);
  EXPECT_EQ(calls, 0);
  nf::PacketView v;
  v.flow = key_of(1);
  fold.add(1, 1, v, sink);
  fold.flush(sink);
  fold.flush(sink);  // the run is closed: nothing left to merge
  EXPECT_EQ(calls, 1);
}

// --- DES engine: strategies agree end-to-end --------------------------------
//
// Paced lossless TCP through the full simulated stack with MFLOW splitting
// on; the senders quiesce half-way through the window so the in-flight tail
// drains. All three strategies then process the identical delivered
// multiset and must report the identical merged-state digest.
TEST(NfScenario, StateDigestEqualAcrossStrategiesUnderSplit) {
  std::vector<std::uint64_t> digests;
  std::uint64_t packets = 0;
  for (const auto strat :
       {nf::Strategy::kSharedLock, nf::Strategy::kFlowAffinity,
        nf::Strategy::kScr}) {
    exp::ScenarioConfig cfg;
    cfg.mode = exp::Mode::kMflow;
    cfg.protocol = net::Ipv4Header::kProtoTcp;
    cfg.num_flows = 2;
    cfg.message_size = 65536;
    cfg.measure = sim::ms(10);
    cfg.pace_per_message = sim::ms(1);
    for (int f = 0; f < cfg.num_flows; ++f)
      cfg.rate_changes.push_back(
          {f, cfg.warmup + cfg.measure / 2, sim::seconds(10)});
    cfg.nf.enabled = true;
    cfg.nf.strategy = strat;
    cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                          nf::Kind::kLoadBalancer};
    const auto res = exp::run_scenario(cfg);
    EXPECT_GT(res.nf_packets, 0u);
    EXPECT_EQ(res.nf_flows_live, static_cast<std::uint64_t>(cfg.num_flows));
    digests.push_back(res.nf_state_digest);
    packets = res.nf_packets;
  }
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]) << "scr diverged from shared-lock oracle"
                                    << " after " << packets << " packets";
}

// TTL sweep: once the senders stop, entries idle past the TTL and the
// periodic sweep retires them (counted, and retracted from the live table).
TEST(NfScenario, IdleFlowStateExpiresUnderTtlSweep) {
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kMflow;
  cfg.protocol = net::Ipv4Header::kProtoTcp;
  cfg.num_flows = 2;
  cfg.message_size = 65536;
  cfg.measure = sim::ms(10);
  cfg.pace_per_message = sim::ms(1);
  for (int f = 0; f < cfg.num_flows; ++f)
    cfg.rate_changes.push_back(
        {f, cfg.warmup + cfg.measure / 2, sim::seconds(10)});
  cfg.nf.enabled = true;
  cfg.nf.strategy = nf::Strategy::kScr;
  cfg.nf.chain.chain = {nf::Kind::kFirewall};
  cfg.nf.state_ttl = sim::ms(1);
  cfg.nf.sweep_interval = sim::ms(1);
  const auto res = exp::run_scenario(cfg);
  EXPECT_GT(res.nf_flows_expired, 0u);
  EXPECT_LT(res.nf_flows_live, res.nf_flows_peak);
}

// --- rt engine: real threads ------------------------------------------------
//
// Lossless config (no push-drop, no faults): every generated packet is
// delivered, so the merged state must account for exactly the delivered
// stream — and identically across all three strategies.
TEST(NfRtEngine, ConservationAndDigestEqualAcrossStrategies) {
  constexpr std::uint64_t kTotal = 4000;
  std::vector<std::uint64_t> digests;
  for (const auto strat :
       {nf::Strategy::kSharedLock, nf::Strategy::kFlowAffinity,
        nf::Strategy::kScr}) {
    rt::EngineConfig rc;
    rc.workers = 2;
    rc.batch_size = 64;
    rc.cost_ns_per_packet = 0;
    rc.overlay.enabled = true;
    rc.overlay.flows = 4;
    rc.nf.enabled = true;
    rc.nf.strategy = strat;
    rc.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                         nf::Kind::kLoadBalancer};
    const auto res = rt::Engine(rc).run(kTotal);
    EXPECT_EQ(res.packets, kTotal);
    EXPECT_EQ(res.nf_packets, kTotal);
    EXPECT_EQ(res.nf_nat_rewrites, kTotal);  // overlay: real bytes rewritten
    EXPECT_EQ(res.nf_nat_rewrite_failures, 0u);
    std::uint64_t segs = 0;
    for (const auto& [fid, st] : res.nf_state) segs += st.fw.segs;
    EXPECT_EQ(segs, kTotal) << "state lost or double-counted packets";
    digests.push_back(res.nf_state_digest);
  }
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

// With faults on, the NF sees SURVIVORS only: the state seg count must equal
// delivered packets, not generated ones.
TEST(NfRtEngine, StateCountsSurvivorsOnlyUnderLoss) {
  rt::EngineConfig rc;
  rc.workers = 2;
  rc.batch_size = 64;
  rc.cost_ns_per_packet = 0;
  rc.fault_drop_rate = 0.05;
  rc.fault_seed = 7;
  rc.nf.enabled = true;
  rc.nf.strategy = nf::Strategy::kScr;
  rc.nf.chain.chain = {nf::Kind::kFirewall};
  const auto res = rt::Engine(rc).run(8000);
  EXPECT_LT(res.packets, 8000u);  // some were dropped
  std::uint64_t segs = 0;
  for (const auto& [fid, st] : res.nf_state) segs += st.fw.segs;
  EXPECT_EQ(segs, res.packets);
  EXPECT_EQ(res.nf_packets, res.packets);
}

namespace {

/// The rt-churn-lock shape: metadata-only packets, a churning flow table
/// (a fresh flow every `lifetime` batches), nat->fw->lb.
rt::EngineConfig churn_nf_config(nf::Strategy strat,
                                 std::uint64_t lifetime = 8) {
  rt::EngineConfig rc;
  rc.workers = 2;
  rc.batch_size = 64;
  rc.cost_ns_per_packet = 0;
  rc.flow_table.enabled = true;
  rc.flow_table.flow_lifetime_batches = lifetime;
  rc.nf.enabled = true;
  rc.nf.strategy = strat;
  rc.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                       nf::Kind::kLoadBalancer};
  return rc;
}

rt::EngineConfig overlay_nf_config(nf::Strategy strat) {
  rt::EngineConfig rc = churn_nf_config(strat);
  rc.flow_table.enabled = false;
  rc.overlay.enabled = true;
  rc.overlay.cache = true;
  rc.overlay.flows = 8;
  return rc;
}

}  // namespace

// The FULL merged state — every flow's FlowState, not only the digest —
// must equal a single-threaded per-packet oracle over the delivered stream,
// through real threads, injected drops (upstream of the NF) and two live
// rescales, for the overlay and churn configurations under every strategy.
// The oracle re-derives each delivered packet's view: the NAT rewrite
// changes bytes, never the flow metadata or the length the view reads.
TEST(NfRtEngine, MergedStateEqualsPerPacketOracleUnderDropsAndRescales) {
  constexpr std::uint64_t kTotal = 64 * 200 + 37;  // partial final batch
  for (const bool overlay : {true, false}) {
    for (const auto strat :
         {nf::Strategy::kSharedLock, nf::Strategy::kFlowAffinity,
          nf::Strategy::kScr}) {
      rt::EngineConfig rc = overlay ? overlay_nf_config(strat)
                                    : churn_nf_config(strat, /*lifetime=*/3);
      rc.fault_drop_rate = 0.03;
      rc.fault_seed = 11;
      rc.rescales = {{4000, 1}, {9000, 2}};
      const auto maglev = nf::MaglevTable::build(rc.nf.chain.lb_backends,
                                                 rc.nf.chain.lb_table_size,
                                                 rc.nf.chain.lb_seed);
      std::map<net::FlowId, nf::FlowState> oracle;
      const auto res =
          rt::Engine(rc).run(kTotal, [&](const rt::RtPacket& pkt) {
            if (!pkt.skb) return;
            const nf::PacketView v = nf::view_of(*pkt.skb);
            for (const auto kind : rc.nf.chain.chain)
              nf::apply(rc.nf.chain, &maglev, kind, v,
                        oracle[pkt.skb->flow_id]);
          });
      const std::string tag = std::string(overlay ? "overlay " : "churn ") +
                              std::string(nf::strategy_name(strat));
      ASSERT_TRUE(res.in_order) << tag;
      ASSERT_GT(res.packets_dropped, 0u) << tag;
      ASSERT_EQ(res.rescales_applied, 2u) << tag;
      EXPECT_EQ(res.nf_packets, res.packets) << tag;
      const std::vector<std::pair<net::FlowId, nf::FlowState>> want(
          oracle.begin(), oracle.end());
      EXPECT_EQ(res.nf_state, want) << tag;
      std::uint64_t h = 0;
      for (const auto& [fid, st] : want) h = nf::fold_digest(h, fid, st);
      EXPECT_EQ(res.nf_state_digest, h) << tag;
    }
  }
}

// kSharedLock enters the shared table once per run — one flow within one
// micro-flow batch of a worker chunk — not once per packet. Lossless, with
// chunks holding whole batches (kChunk is a multiple of 64), that is one
// critical section per batch, the partial final one included.
TEST(NfRtEngine, SharedLockEnteredOncePerMicroflowBatch) {
  constexpr std::uint64_t kTotal = 64 * 300 + 10;
  constexpr std::uint64_t kBatches = 301;
  for (const bool overlay : {true, false}) {
    const rt::EngineConfig rc = overlay
                                    ? overlay_nf_config(nf::Strategy::kSharedLock)
                                    : churn_nf_config(nf::Strategy::kSharedLock);
    const auto res = rt::Engine(rc).run(kTotal);
    ASSERT_TRUE(res.in_order);
    ASSERT_EQ(res.packets, kTotal);
    EXPECT_EQ(res.nf_packets, kTotal);
    EXPECT_EQ(res.nf_lock_acquires, kBatches)
        << (overlay ? "overlay" : "churn");
  }
  // The replica strategies take no lock at all.
  EXPECT_EQ(rt::Engine(churn_nf_config(nf::Strategy::kScr))
                .run(kTotal)
                .nf_lock_acquires,
            0u);
}
