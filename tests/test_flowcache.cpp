// Per-flow encap/decap fast-path cache (stack/flowcache.hpp + overlay
// wiring + rt engine overlay mode).
//
// The safety contract under test: a lookup NEVER returns an uncommitted or
// stale entry. The round-trip property tests drive real encapsulated bytes
// through the full pipeline across FDB relearns and control-plane rescale
// epochs and assert every delivered message is intact — an applied stale
// decision would corrupt payload accounting or deliver out of order, both
// of which these tests would catch.
#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "overlay/topology.hpp"
#include "rt/engine.hpp"
#include "stack/bridge.hpp"
#include "stack/flowcache.hpp"
#include "stack/machine.hpp"
#include "stack/vxlan.hpp"
#include "steering/modes.hpp"

using namespace mflow;

namespace {

net::PacketPtr flow_packet(std::uint16_t src_port, net::FlowId flow_id) {
  auto p = net::make_udp_datagram(
      net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                   src_port, 5000, net::Ipv4Header::kProtoUdp},
      256);
  p->flow_id = flow_id;
  return p;
}

// Inner dst MAC every make_udp_datagram frame carries (net/packet.cpp).
const net::MacAddr kInnerDst{0x02, 0x42, 0xac, 0x11, 0x00, 0x03};

}  // namespace

// --- FlowCache unit ----------------------------------------------------------

TEST(FlowCache, LookupMissesUntilVethCommits) {
  stack::FlowCache cache;
  auto p = flow_packet(41000, 1);
  EXPECT_FALSE(cache.would_hit(*p));
  EXPECT_EQ(cache.lookup(*p), nullptr);  // nothing recorded

  cache.record_vni(*p, 42);
  EXPECT_EQ(cache.lookup(*p), nullptr);  // open but not sealed
  EXPECT_FALSE(cache.commit(*p));        // bridge never contributed

  cache.record_port(*p, kInnerDst, 1);
  EXPECT_EQ(cache.lookup(*p), nullptr);  // still uncommitted
  EXPECT_TRUE(cache.commit(*p));         // veth seals it
  EXPECT_FALSE(cache.commit(*p));        // idempotent: only first seal counts

  EXPECT_TRUE(cache.would_hit(*p));
  const auto* e = cache.lookup(*p);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->vni, 42u);
  EXPECT_EQ(e->fdb_port, 1);
  EXPECT_TRUE(e->committed);
  EXPECT_EQ(cache.inserts(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);  // the three pre-commit lookups
}

TEST(FlowCache, CapacityEvictsAndCounts) {
  stack::FlowCache cache({/*capacity=*/2});
  for (std::uint16_t i = 0; i < 3; ++i) {
    auto p = flow_packet(static_cast<std::uint16_t>(41000 + i), i + 1);
    cache.record_vni(*p, 42);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(FlowCache, InvalidateMacErasesOnlyMatchingEntries) {
  stack::FlowCache cache;
  auto a = flow_packet(41000, 1);
  auto b = flow_packet(41001, 2);
  for (auto* p : {a.get(), b.get()}) {
    cache.record_vni(*p, 42);
    cache.record_port(*p, p->flow_id == 1 ? kInnerDst : net::MacAddr{1, 2, 3},
                      1);
    EXPECT_TRUE(cache.commit(*p));
  }
  cache.invalidate_mac(kInnerDst);
  EXPECT_EQ(cache.lookup(*a), nullptr);  // erased (and counted as a miss)
  EXPECT_NE(cache.lookup(*b), nullptr);  // different MAC untouched
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(FlowCache, InvalidateFlowAndAll) {
  stack::FlowCache cache;
  auto a = flow_packet(41000, 7);
  cache.record_vni(*a, 42);
  cache.record_port(*a, kInnerDst, 1);
  EXPECT_TRUE(cache.commit(*a));

  cache.invalidate_flow(7);
  EXPECT_EQ(cache.lookup(*a), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);

  cache.record_vni(*a, 42);
  cache.invalidate_all();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.invalidations(), 2u);
}

// --- DES round trip through the real pipeline --------------------------------

namespace {

struct CacheRig {
  sim::Simulator sim{1};
  stack::Machine machine;
  stack::FlowCache cache;

  CacheRig() : machine(sim, make_params()) {
    overlay::PathSpec spec;
    spec.overlay = true;
    spec.protocol = net::Ipv4Header::kProtoUdp;
    machine.set_path(overlay::build_rx_path(machine.costs(), spec));
    machine.set_steering(steer::make_policy(exp::Mode::kVanilla));
    overlay::install_flow_cache(machine, cache);
    stack::SocketConfig sc;
    sc.protocol = net::Ipv4Header::kProtoUdp;
    sc.app_core = 0;
    sc.message_size = 1000;
    machine.add_socket(5000, sc);
    machine.start();
  }

  static stack::MachineParams make_params() {
    stack::MachineParams mp;
    mp.num_cores = 8;
    return mp;
  }

  stack::VxlanStage& vxlan() {
    return static_cast<stack::VxlanStage&>(
        machine.stage_at(machine.stage_index(stack::StageId::kVxlan)));
  }
  stack::BridgeStage& bridge() {
    return static_cast<stack::BridgeStage&>(
        machine.stage_at(machine.stage_index(stack::StageId::kBridge)));
  }

  /// One encapsulated 1000-byte message; runs the sim to completion.
  void deliver(std::uint64_t msg_id, std::uint32_t vni = 42) {
    auto p = net::make_udp_datagram(
        net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                     41000, 5000, net::Ipv4Header::kProtoUdp},
        1000);
    p->flow_id = 1;
    p->message_id = msg_id;
    p->message_bytes = 1000;
    net::vxlan_encap(*p, net::Ipv4Addr(192, 168, 1, 2),
                     net::Ipv4Addr(192, 168, 1, 3), vni);
    machine.nic().deliver(std::move(p), sim.now());
    sim.run();
  }

  std::uint64_t messages() { return machine.socket(5000).stats().messages; }
};

}  // namespace

TEST(FlowCacheMachine, FirstPacketSlowThenSplices) {
  CacheRig rig;
  rig.deliver(0);
  EXPECT_EQ(rig.messages(), 1u);
  EXPECT_EQ(rig.vxlan().spliced(), 0u);  // first packet resolved slow
  EXPECT_EQ(rig.cache.inserts(), 1u);

  for (std::uint64_t m = 1; m <= 4; ++m) rig.deliver(m);
  EXPECT_EQ(rig.messages(), 5u);
  EXPECT_EQ(rig.vxlan().spliced(), 4u);  // every later packet fast-pathed
  EXPECT_EQ(rig.cache.hits(), 4u);
  EXPECT_EQ(rig.machine.socket(5000).stats().payload_bytes, 5000u);
}

TEST(FlowCacheMachine, FdbMoveForcesSlowPathReResolve) {
  CacheRig rig;
  rig.bridge().learn(kInnerDst, 1);
  rig.deliver(0);
  rig.deliver(1);
  ASSERT_EQ(rig.vxlan().spliced(), 1u);

  // Container migration: the inner MAC moves port. Every cached decision
  // against it must die before the next packet.
  rig.bridge().learn(kInnerDst, 2);
  EXPECT_EQ(rig.cache.size(), 0u);
  EXPECT_EQ(rig.cache.invalidations(), 1u);

  const auto spliced_before = rig.vxlan().spliced();
  rig.deliver(2);  // re-resolves through vxlan -> bridge -> veth
  EXPECT_EQ(rig.vxlan().spliced(), spliced_before);
  EXPECT_EQ(rig.messages(), 3u);  // still delivered, intact

  rig.deliver(3);  // recommitted entry splices again
  EXPECT_EQ(rig.vxlan().spliced(), spliced_before + 1);
  EXPECT_EQ(rig.messages(), 4u);
  EXPECT_EQ(rig.machine.socket(5000).stats().payload_bytes, 4000u);
}

TEST(FlowCacheMachine, FdbRefreshSamePortKeepsEntries) {
  CacheRig rig;
  rig.bridge().learn(kInnerDst, 1);
  rig.deliver(0);
  rig.deliver(1);
  rig.bridge().learn(kInnerDst, 1);  // refresh, not a move
  EXPECT_EQ(rig.cache.invalidations(), 0u);
  rig.deliver(2);
  EXPECT_EQ(rig.vxlan().spliced(), 2u);
}

TEST(FlowCacheMachine, ForeignVniNeverSplicedThroughCommittedEntry) {
  CacheRig rig;
  rig.deliver(0);
  rig.deliver(1);
  ASSERT_EQ(rig.vxlan().spliced(), 1u);

  // Same flow, wrong VNI: the committed entry must NOT splice it through;
  // the probe falls back to the validating slow path, which drops it.
  rig.deliver(2, /*vni=*/999);
  EXPECT_EQ(rig.vxlan().spliced(), 1u);
  EXPECT_EQ(rig.vxlan().decap_failures(), 1u);
  EXPECT_EQ(rig.messages(), 2u);
  // The disagreeing bytes also killed the entry (tunnel changed under the
  // flow) — the next good packet re-resolves, then splices again.
  rig.deliver(3);
  EXPECT_EQ(rig.vxlan().spliced(), 1u);
  rig.deliver(4);
  EXPECT_EQ(rig.vxlan().spliced(), 2u);
  EXPECT_EQ(rig.messages(), 4u);
}

TEST(FlowCacheMachine, InstallRejectsNativePath) {
  sim::Simulator sim{1};
  stack::Machine machine(sim, CacheRig::make_params());
  overlay::PathSpec spec;
  spec.overlay = false;
  spec.protocol = net::Ipv4Header::kProtoUdp;
  machine.set_path(overlay::build_rx_path(machine.costs(), spec));
  stack::FlowCache cache;
  EXPECT_THROW(overlay::install_flow_cache(machine, cache),
               std::invalid_argument);
}

// --- rescale epochs: the control plane's invalidation path -------------------

namespace {

// The PR-5 live-rescale scenario (elephant -> mouse -> elephant round trip
// under the dynamic control plane) with the fast-path cache enabled: every
// set_flow_degree erases the flow's entry, so a split-degree change can
// never apply a pre-rescale decision.
exp::ScenarioConfig rescale_with_cache_config() {
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kMflow;
  cfg.protocol = net::Ipv4Header::kProtoTcp;
  cfg.message_size = 65536;
  cfg.num_flows = 3;
  cfg.server_cores = 8;
  cfg.app_cores = 1;
  cfg.first_kernel_core = 1;
  cfg.kernel_cores = 7;
  cfg.warmup = sim::ms(2);
  cfg.measure = sim::ms(10);
  core::MflowConfig mcfg = core::udp_device_scaling_config();
  mcfg.tcp_in_reader = true;
  mcfg.splitting_cores = {2, 3, 4, 5};
  cfg.mflow = mcfg;
  cfg.control.enabled = true;
  cfg.control.interval = sim::us(100);
  cfg.control.params.monitor.window = sim::ms(1);
  cfg.control.params.classifier.promote_pps = 200'000.0;
  cfg.control.params.classifier.demote_pps = 100'000.0;
  cfg.control.params.classifier.dwell = sim::us(300);
  cfg.rate_changes.push_back({0, sim::ms(5), sim::ms(2)});
  cfg.rate_changes.push_back({0, sim::ms(9), 0});
  cfg.fastpath.enabled = true;
  return cfg;
}

}  // namespace

TEST(FlowCacheScenario, LiveRescaleInvalidatesAndStaysLossless) {
  const auto r = exp::run_scenario(rescale_with_cache_config());
  EXPECT_GT(r.goodput_gbps, 1.0);
  EXPECT_GE(r.control.rescales, 3u);
  // Each rescale erased the flow's entry...
  EXPECT_GT(r.cache_invalidations, 0u);
  // ...and the flow re-resolved afterwards, so the cache kept working.
  EXPECT_GT(r.cache_hits, 0u);
  // No stale decision applied: conservation and ordering hold through
  // every epoch exactly as in the cache-off LiveRescale test.
  EXPECT_EQ(r.drops_recovered, 0u);
  EXPECT_EQ(r.evictions, 0u);
  EXPECT_EQ(r.late_deliveries, 0u);
  EXPECT_EQ(r.nic_drops, 0u);
}

TEST(FlowCacheScenario, CachedRunIsDeterministic) {
  const auto a = exp::run_scenario(rescale_with_cache_config());
  const auto b = exp::run_scenario(rescale_with_cache_config());
  EXPECT_DOUBLE_EQ(a.goodput_gbps, b.goodput_gbps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_invalidations, b.cache_invalidations);
}

TEST(FlowCacheScenario, ValidateRejectsConflictingKnobs) {
  exp::ScenarioConfig cfg;
  cfg.fastpath.enabled = true;
  cfg.fastpath.capacity = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.fastpath.capacity = 64;
  EXPECT_NO_THROW(cfg.validate());
  cfg.mode = exp::Mode::kNative;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- rt engine overlay mode --------------------------------------------------

namespace {

rt::EngineConfig rt_overlay_config(bool cache) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.overlay.enabled = true;
  cfg.overlay.cache = cache;
  cfg.overlay.flows = 8;
  return cfg;
}

}  // namespace

TEST(RtOverlay, DecapsEveryPacketWithoutCache) {
  const auto r = rt::Engine(rt_overlay_config(false)).run(4096);
  EXPECT_EQ(r.packets, 4096u);
  EXPECT_TRUE(r.in_order);
  EXPECT_EQ(r.decap_failures, 0u);
  EXPECT_EQ(r.cache_hits + r.cache_misses, 0u);  // no cache, no probes
}

TEST(RtOverlay, CacheProbesEveryPacketAndMostlyHits) {
  const auto r = rt::Engine(rt_overlay_config(true)).run(4096);
  EXPECT_EQ(r.packets, 4096u);
  EXPECT_TRUE(r.in_order);
  EXPECT_EQ(r.decap_failures, 0u);
  // Every packet either spliced via the cache or took the full decap.
  EXPECT_EQ(r.cache_hits + r.cache_misses, 4096u);
  EXPECT_GT(r.cache_hits, r.cache_misses);  // 8 flows, steady traffic
}

TEST(RtOverlay, HitCountsAreDeterministicWhenLossless) {
  const auto a = rt::Engine(rt_overlay_config(true)).run(4096);
  const auto b = rt::Engine(rt_overlay_config(true)).run(4096);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

TEST(RtOverlay, RescaleEpochInvalidatesCachedEntries) {
  auto cfg = rt_overlay_config(true);
  cfg.rescales = {{1500, 1}, {2500, 2}};
  const auto r = rt::Engine(cfg).run(4096);
  EXPECT_EQ(r.packets, 4096u);
  EXPECT_TRUE(r.in_order);
  EXPECT_EQ(r.decap_failures, 0u);
  EXPECT_EQ(r.rescales_applied, 2u);
  // Entries installed under epoch 0 must not survive into epoch 1/2: the
  // first post-rescale packet of each cached flow re-resolves.
  EXPECT_GT(r.cache_invalidations, 0u);
  EXPECT_EQ(r.cache_hits + r.cache_misses, 4096u);
}

TEST(RtOverlay, TinyCacheThrashesButStaysCorrect) {
  // Batches are per-flow, so even a thrashing direct-mapped table hits
  // within a batch; the conflict cost shows up as one re-resolve per
  // batch-level slot steal. Compare misses against an ample table.
  auto ample = rt_overlay_config(true);
  ample.overlay.flows = 32;
  const auto a = rt::Engine(ample).run(4096);

  auto tiny = ample;
  tiny.overlay.cache_slots = 2;  // 32 flows fight over 2 slots per worker
  const auto t = rt::Engine(tiny).run(4096);

  for (const auto* r : {&a, &t}) {
    EXPECT_EQ(r->packets, 4096u);
    EXPECT_TRUE(r->in_order);
    EXPECT_EQ(r->decap_failures, 0u);
    EXPECT_EQ(r->cache_hits + r->cache_misses, 4096u);
  }
  // Ample: one miss per flow, ever. Tiny: one per conflict steal.
  EXPECT_GT(t.cache_misses, a.cache_misses);
}
