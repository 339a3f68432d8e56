// Real-thread engine: lock-free rings, calibration, and the system-level
// invariant that split/process/merge with REAL threads preserves order for
// any worker count and batch size.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "net/packet.hpp"
#include "nf/nf.hpp"
#include "rt/calibrate.hpp"
#include "rt/engine.hpp"
#include "rt/spsc_ring.hpp"
#include "rt_skb_oracle.hpp"
#include "util/rng.hpp"

using namespace mflow::rt;

TEST(SpscRing, FifoSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, PeekDoesNotConsume) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.peek(), nullptr);
  ring.try_push(42);
  ASSERT_NE(ring.peek(), nullptr);
  EXPECT_EQ(*ring.peek(), 42);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(*ring.try_pop(), 42);
}

TEST(SpscRing, WrapsManyTimes) {
  SpscRing<std::uint64_t> ring(4);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    ASSERT_EQ(*ring.try_pop(), i);
  }
}

TEST(SpscRing, TwoThreadsTransferEverythingInOrder) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kN = 200000;
  std::jthread producer([&] {
    for (std::uint64_t i = 0; i < kN; ++i)
      while (!ring.try_push(i)) std::this_thread::yield();
  });
  std::uint64_t expected = 0;
  while (expected < kN) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
}

TEST(SpscRing, NonPowerOfTwoCapacityThrows) {
  // A bad mask silently corrupts data, so the check must be a hard error in
  // every build type, not an assert.
  EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
  EXPECT_THROW(SpscRing<int>(3), std::invalid_argument);
  EXPECT_THROW(SpscRing<int>(1000), std::invalid_argument);
  EXPECT_NO_THROW(SpscRing<int>(1));
  EXPECT_NO_THROW(SpscRing<int>(1024));
}

TEST(SpscRing, FailedRvaluePushLeavesValueIntact) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto keep = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(keep)));
  // The contract move-only packet handles rely on: a rejected push must not
  // have consumed the value.
  ASSERT_NE(keep, nullptr);
  EXPECT_EQ(*keep, 3);
  ASSERT_TRUE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.try_push(std::move(keep)));
  EXPECT_EQ(keep, nullptr);
}

// Property test: a randomized interleaving of scalar and batch operations
// must behave exactly like a plain deque of the same values.
TEST(SpscRing, BatchOpsMatchScalarModel) {
  mflow::util::Rng rng(0xbadc);
  SpscRing<std::uint64_t> ring(64);
  std::deque<std::uint64_t> model;
  std::uint64_t next = 0;
  std::array<std::uint64_t, 97> buf;
  for (int step = 0; step < 20000; ++step) {
    switch (rng.uniform(4)) {
      case 0: {  // scalar push
        const bool had_space = model.size() < 64u;
        const bool ok = ring.try_push(next);
        EXPECT_EQ(ok, had_space);
        if (ok) model.push_back(next++);
        break;
      }
      case 1: {  // scalar pop
        auto v = ring.try_pop();
        ASSERT_EQ(v.has_value(), !model.empty());
        if (v) {
          EXPECT_EQ(*v, model.front());
          model.pop_front();
        }
        break;
      }
      case 2: {  // batch push of random size (may exceed free space)
        const std::size_t want = 1 + rng.uniform(buf.size());
        for (std::size_t i = 0; i < want; ++i) buf[i] = next + i;
        const std::size_t pushed = ring.try_push_batch(buf.data(), want);
        EXPECT_EQ(pushed, std::min<std::size_t>(want, 64 - model.size()));
        for (std::size_t i = 0; i < pushed; ++i) model.push_back(next + i);
        next += pushed;
        break;
      }
      default: {  // batch pop of random size
        const std::size_t want = 1 + rng.uniform(buf.size());
        const std::size_t popped = ring.try_pop_batch(buf.data(), want);
        EXPECT_EQ(popped, std::min(want, model.size()));
        for (std::size_t i = 0; i < popped; ++i) {
          EXPECT_EQ(buf[i], model.front());
          model.pop_front();
        }
        break;
      }
    }
  }
}

TEST(SpscRing, BatchCrossThreadTransferEverythingInOrder) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kN = 200000;
  std::jthread producer([&] {
    std::array<std::uint64_t, 24> chunk;
    std::uint64_t sent = 0;
    while (sent < kN) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk.size(), kN - sent));
      for (std::size_t i = 0; i < want; ++i) chunk[i] = sent + i;
      std::size_t done = 0;
      while (done < want) {
        const std::size_t k = ring.try_push_batch(chunk.data() + done,
                                                  want - done);
        done += k;
        if (k == 0) std::this_thread::yield();
      }
      sent += want;
    }
  });
  std::array<std::uint64_t, 17> out;
  std::uint64_t expected = 0;
  while (expected < kN) {
    const std::size_t k = ring.try_pop_batch(out.data(), out.size());
    if (k == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(out[i], expected++);
  }
}

TEST(Calibrate, RatePositiveAndStable) {
  const double a = spin_iters_per_ns();
  const double b = spin_iters_per_ns();
  EXPECT_GT(a, 0.0);
  EXPECT_DOUBLE_EQ(a, b);  // memoized
}

namespace {

RtPacket pkt(std::uint64_t seq, std::uint64_t batch) {
  RtPacket p;
  p.seq = seq;
  p.batch = batch;
  return p;
}

// Pop every packet the merger can release now, appending seqs.
void drain_seqs(RtReassembler& ra, std::vector<std::uint64_t>& seqs) {
  std::array<RtPacket, 2> out;  // smaller than a batch: pops span calls
  while (const std::size_t n = ra.pop_ready_batch(out.data(), out.size()))
    for (std::size_t i = 0; i < n; ++i) seqs.push_back(out[i].seq);
}

}  // namespace

TEST(RtReassembler, MergesRoundRobinBatches) {
  RtReassembler ra(2, 64);
  // Batch 1 -> worker 0, batch 2 -> worker 1, batch 3 -> worker 0.
  RtPacket b2[] = {pkt(2, 2)};
  RtPacket w0[] = {pkt(0, 1), pkt(1, 1), pkt(3, 3)};
  ASSERT_EQ(ra.deposit_batch(1, b2, 1), 1u);  // batch 2 first
  ASSERT_EQ(ra.deposit_batch(0, w0, 3), 3u);
  std::vector<std::uint64_t> seqs;
  drain_seqs(ra, seqs);
  // Batch 2's ring is dry and no later batch proves it complete — that is
  // only knowable at end of stream, where the engine force-advances.
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2}));
  ra.force_advance();
  drain_seqs(ra, seqs);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(ra.batches_merged(), 2u);
  EXPECT_EQ(ra.occupancy(), 0u);
}

// The epoch budget bounds announcements still waiting for the merge
// counter, not rescales over the merger's lifetime: a refused epoch is
// accepted again once the counter reaches an earlier one.
TEST(RtReassembler, EpochBudgetCountsOnlyPendingEpochs) {
  RtReassembler ra(2, 64);
  constexpr std::uint64_t kBudget = RtReassembler::kMaxPendingEpochs;
  // One epoch per batch 2..kBudget+1, every batch on ring 0.
  for (std::uint64_t b = 2; b < 2 + kBudget; ++b)
    ASSERT_TRUE(ra.announce_epoch({b, 1})) << "batch " << b;
  const RtReassembler::Epoch next{2 + kBudget, 1};
  EXPECT_FALSE(ra.announce_epoch(next));  // kBudget pending: budget full
  // Batch 1 (epoch {1,2}) and batch 2 both live on ring 0; batch 2's head
  // proves batch 1 complete, so the counter reaches batch 2 and puts its
  // epoch in force, freeing exactly one slot.
  RtPacket w0[] = {pkt(0, 1), pkt(1, 2)};
  ASSERT_EQ(ra.deposit_batch(0, w0, 2), 2u);
  std::vector<std::uint64_t> seqs;
  drain_seqs(ra, seqs);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(ra.announce_epoch(next));
  EXPECT_FALSE(ra.announce_epoch({3 + kBudget, 1}));
}

struct RtSweep {
  std::size_t workers;
  std::uint32_t batch;
  std::uint64_t packets;
};

class RtEngineSweep : public ::testing::TestWithParam<RtSweep> {};

TEST_P(RtEngineSweep, InOrderAndLossless) {
  const auto p = GetParam();
  EngineConfig cfg;
  cfg.workers = p.workers;
  cfg.batch_size = p.batch;
  cfg.cost_ns_per_packet = 50;  // keep the test fast
  Engine engine(cfg);
  std::uint64_t observed = 0;
  const auto res = engine.run(p.packets, [&](const RtPacket& pkt) {
    EXPECT_EQ(pkt.seq, observed);
    ++observed;
  });
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, p.packets);
  EXPECT_EQ(observed, p.packets);
  EXPECT_GT(res.packets_per_second(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtEngineSweep,
    ::testing::Values(RtSweep{1, 256, 5000}, RtSweep{2, 1, 5000},
                      RtSweep{2, 7, 5000}, RtSweep{2, 256, 20000},
                      RtSweep{3, 64, 20000}, RtSweep{4, 256, 20000},
                      RtSweep{4, 1024, 3000},  // partial final batch
                      RtSweep{2, 4096, 1000}   // single huge batch
                      ));

TEST(RtReassembler, DepositAcceptsThePrefixThatFits) {
  RtReassembler ra(1, 4);
  RtPacket pkts[] = {pkt(0, 1), pkt(1, 1), pkt(2, 1),
                     pkt(3, 1), pkt(4, 1)};
  // One attempt, never a wait: a full ring accepts only the prefix that
  // fit and leaves the rest to the caller.
  EXPECT_EQ(ra.deposit_batch(0, pkts, 5), 4u);
  EXPECT_EQ(ra.deposit_batch(0, pkts + 4, 1), 0u);
  // Consuming one slot makes the same deposit succeed.
  RtPacket out;
  ASSERT_EQ(ra.pop_ready_batch(&out, 1), 1u);
  EXPECT_EQ(ra.deposit_batch(0, pkts + 4, 1), 1u);
}

TEST(RtEngine, InjectedDropsRecoverWithoutWedging) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.fault_drop_rate = 0.02;
  cfg.fault_seed = 42;
  constexpr std::uint64_t kTotal = 50000;
  std::uint64_t last_seq = 0;
  bool first = true;
  std::uint64_t observed = 0;
  const auto res = Engine(cfg).run(kTotal, [&](const RtPacket& pkt) {
    if (!first) {
      EXPECT_GT(pkt.seq, last_seq);
    }
    last_seq = pkt.seq;
    first = false;
    ++observed;
  });
  // ~2% of 50k packets vanish mid-pipeline; the merge must neither deliver
  // survivors out of order nor hang waiting for the holes.
  EXPECT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(res.packets + res.packets_dropped, kTotal);
  EXPECT_EQ(observed, res.packets);
  EXPECT_TRUE(res.in_order);
}

TEST(RtEngine, TinyRingWithBoundedRetryDegradesInsteadOfSpinning) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 8;
  cfg.ring_capacity = 8;
  cfg.cost_ns_per_packet = 2000;  // workers slower than the generator
  cfg.max_push_spins = 4;        // almost no patience
  const auto res = Engine(cfg).run(20000);
  // Conservation and survivor ordering hold whether or not backpressure
  // actually triggered on this host.
  EXPECT_EQ(res.packets + res.packets_dropped, 20000u);
  EXPECT_TRUE(res.in_order);
}

TEST(RtEngine, ZeroCostStillOrdered) {
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  const auto res = Engine(cfg).run(50000);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, 50000u);
}

// Live rescale under real concurrency: the stream shrinks to one worker and
// grows back mid-run via epoch messages, with old-epoch batches draining
// under the old mapping while new ones fill under the new. Ordering and
// conservation must hold through both transitions.
TEST(RtEngine, RuntimeRescaleShrinkAndGrowStaysOrdered) {
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.rescales = {{10000, 1}, {25000, 3}};
  constexpr std::uint64_t kTotal = 40000;
  std::uint64_t observed = 0;
  const auto res = Engine(cfg).run(kTotal, [&](const RtPacket& pkt) {
    EXPECT_EQ(pkt.seq, observed);
    ++observed;
  });
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, kTotal);
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_EQ(observed, kTotal);
  EXPECT_EQ(res.rescales_applied, 2u);
}

// Same-degree rescale entries coalesce to no epoch at all.
TEST(RtEngine, NoOpRescaleAnnouncesNothing) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.rescales = {{500, 2}};  // already at 2 workers
  const auto res = Engine(cfg).run(2000);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.rescales_applied, 0u);
}

// Rescaling while packets are being injected-dropped: the drain protocol
// must not double-count or wedge when holes land near epoch boundaries.
TEST(RtEngine, RescaleUnderFaultsConservesSurvivors) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.fault_drop_rate = 0.02;
  cfg.fault_seed = 7;
  cfg.rescales = {{8000, 1}, {16000, 3}, {24000, 2}};
  constexpr std::uint64_t kTotal = 32000;
  const auto res = Engine(cfg).run(kTotal);
  EXPECT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(res.packets + res.packets_dropped, kTotal);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.rescales_applied, 3u);
}

// Flow-state churn tracking: the control::FlowTable driven on the
// batch-index clock. Peak occupancy must follow the live window (ttl /
// flow lifetime), not cumulative flows, and — because only the generator
// stamps and sweeps the table, on its deterministic batch schedule — the
// telemetry must be exact and bit-identical across runs despite real
// threads.
TEST(RtEngine, FlowTableChurnBoundedAndDeterministic) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.flow_table.enabled = true;
  cfg.flow_table.capacity = 1 << 10;
  cfg.flow_table.ttl_batches = 64;
  cfg.flow_table.sweep_every = 16;
  cfg.flow_table.flow_lifetime_batches = 4;
  constexpr std::uint64_t kTotal = 80000;  // 5000 batches, ~1250 flows
  const auto a = Engine(cfg).run(kTotal);
  EXPECT_TRUE(a.in_order);
  EXPECT_EQ(a.packets, kTotal);
  // Live window ~ ttl/lifetime + 1 = 17 flows, plus up to a sweep
  // interval's worth (16 batches / 4 per flow) waiting for the next sweep.
  EXPECT_EQ(a.flow_table.peak, 21u);
  EXPECT_EQ(a.flow_table.expired, 1232u);
  EXPECT_EQ(a.flow_table.live, 19u);
  const auto b = Engine(cfg).run(kTotal);
  EXPECT_EQ(b.flow_table.peak, a.flow_table.peak);
  EXPECT_EQ(b.flow_table.expired, a.flow_table.expired);
  EXPECT_EQ(b.flow_table.live, a.flow_table.live);
}

// Overlay mode keeps its batch % flows identity: every flow is re-touched
// well inside the TTL, so the table settles at exactly the flow count and
// nothing ever expires.
TEST(RtEngine, FlowTableOverlayHotSetNeverExpires) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.overlay.enabled = true;
  cfg.overlay.flows = 8;
  cfg.flow_table.enabled = true;
  cfg.flow_table.ttl_batches = 32;
  cfg.flow_table.sweep_every = 8;
  const auto res = Engine(cfg).run(20000);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, 20000u);
  EXPECT_EQ(res.flow_table.peak, 8u);
  EXPECT_EQ(res.flow_table.live, 8u);
  EXPECT_EQ(res.flow_table.expired, 0u);
}

// The generator builds only each micro-flow batch's first overlay frame
// and stamps the rest from its header template. Every delivered packet —
// decapsulated by the worker (full decap on a cache miss, splice on a hit)
// and NAT-rewritten when the chain has NAT — must equal a reference built
// per packet with make_udp_datagram + vxlan_encap, decapsulated and
// rewritten the same way: bytes, buffer geometry and metadata. The run
// includes the first batches after two rescales and a partial final batch.
TEST(RtEngine, OverlayTemplateFramesMatchPerPacketBuild) {
  using namespace mflow;
  constexpr std::uint64_t kTotal = 64 * 150 + 23;
  for (const bool nat : {false, true}) {
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batch_size = 64;
    cfg.cost_ns_per_packet = 0;
    cfg.rescales = {{3200, 1}, {6400, 2}};
    cfg.overlay.enabled = true;
    cfg.overlay.cache = true;
    cfg.overlay.flows = 8;
    if (nat) {
      cfg.nf.enabled = true;
      cfg.nf.chain.chain = {nf::Kind::kNat};
    }
    std::uint64_t checked = 0, mismatched = 0;
    const auto res = Engine(cfg).run(kTotal, [&](const RtPacket& pkt) {
      ASSERT_TRUE(pkt.skb);
      const net::Packet& got = *pkt.skb;
      const std::uint64_t fidx = pkt.batch % cfg.overlay.flows;
      const net::FlowKey key{
          net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
          static_cast<std::uint16_t>(40000 + fidx), 5000,
          net::Ipv4Header::kProtoUdp};
      auto ref = net::make_udp_datagram(key, net::kTcpMss);
      net::vxlan_encap(*ref, net::Ipv4Addr(192, 168, 1, 2),
                       net::Ipv4Addr(192, 168, 1, 3), cfg.overlay.vni);
      ASSERT_TRUE(net::vxlan_decap(*ref).ok);
      if (nat) {
        ASSERT_TRUE(nf::nat_rewrite(cfg.nf.chain, *ref,
                                    nf::nat_port_for(cfg.nf.chain, key)));
      }
      const auto a = got.buf.data();
      const auto b = ref->buf.data();
      const bool same =
          std::equal(a.begin(), a.end(), b.begin(), b.end()) &&
          got.buf.headroom() == ref->buf.headroom() && got.flow == key &&
          got.payload_len == ref->payload_len &&
          got.encapsulated == ref->encapsulated &&
          got.flow_id == fidx + 1 && got.wire_seq == pkt.seq &&
          got.microflow_id == pkt.batch && got.gro_segs == 1;
      if (!same && mismatched++ == 0)
        ADD_FAILURE() << "first mismatch at seq " << pkt.seq
                      << (nat ? " (nat)" : "");
      ++checked;
    });
    ASSERT_TRUE(res.in_order);
    EXPECT_EQ(checked, kTotal);
    EXPECT_EQ(mismatched, 0u);
    EXPECT_EQ(res.rescales_applied, 2u);
    EXPECT_GT(res.cache_hits, 0u);
    if (nat) {
      EXPECT_EQ(res.nf_nat_rewrites, kTotal);
    }
  }
}

// The metadata-only sibling of the test above: the generator hands workers
// bare slabs, and every delivered skb must carry the metadata its worker
// built from the descriptor — the flow key the NF chain reads, flow id,
// payload length, wire seq, micro-flow id, not encapsulated, one segment —
// with and without flow-table churn, across two rescales and a partial
// final batch.
TEST(RtEngine, MetadataOnlySkbBuiltFromDescriptor) {
  using namespace mflow;
  constexpr std::uint64_t kTotal = 64 * 150 + 23;
  for (const bool churn : {false, true}) {
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.batch_size = 64;
    cfg.cost_ns_per_packet = 0;
    cfg.max_push_spins = 0;  // lossless: every packet is checked
    cfg.rescales = {{3200, 1}, {6400, 2}};
    cfg.nf.enabled = true;
    cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                          nf::Kind::kLoadBalancer};
    if (churn) {
      cfg.flow_table.enabled = true;
      cfg.flow_table.flow_lifetime_batches = 4;
    }
    std::uint64_t checked = 0, mismatched = 0;
    const auto res = Engine(cfg).run(kTotal, [&](const RtPacket& pkt) {
      const std::string bad = test::skb_mismatch(cfg, pkt);
      if (!bad.empty() && mismatched++ == 0)
        ADD_FAILURE() << "first mismatch at seq " << pkt.seq << ": " << bad
                      << (churn ? " (churn)" : "");
      ++checked;
    });
    ASSERT_TRUE(res.in_order);
    EXPECT_EQ(checked, kTotal);
    EXPECT_EQ(mismatched, 0u);
    EXPECT_EQ(res.rescales_applied, 2u);
    EXPECT_EQ(res.nf_packets, kTotal);
  }
}

// A rescale schedule longer than the pending-epoch budget, all due at the
// first boundary: the generator applies 64, is refused on the next, and
// must keep the old mapping and resume the schedule at a later boundary
// once the merge counter has put the first epochs in force.
TEST(RtEngine, RescaleScheduleLongerThanEpochBudgetAppliesInOrder) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 2;
  cfg.cost_ns_per_packet = 0;
  constexpr std::uint32_t kChanges = 100;
  for (std::uint32_t k = 0; k < kChanges; ++k)
    cfg.rescales.push_back({0, k % 2 == 0 ? 1u : 2u});
  Engine engine(cfg);
  constexpr std::uint64_t kTotal = 20000;
  std::uint64_t observed = 0;
  const auto res = engine.run(kTotal, [&](const RtPacket& pkt) {
    EXPECT_EQ(pkt.seq, observed);
    ++observed;
  });
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, kTotal);
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_EQ(res.rescales_applied, kChanges);
}

// End-of-stream race: the consumer decides a dry merge head can be skipped
// only from a worker-exit count it read BEFORE its dry pop. Reading it
// after let a final deposit land in between and be discarded, hanging the
// run. Many one-batch runs on the rt-churn-lock shape (2 workers, churning
// flow table, nat->fw->lb under the shared lock) hit that window often; a
// regression hangs here, which ctest's TIMEOUT on this binary turns into a
// failure.
TEST(RtEngine, BackToBackShortRunsNeverHangAtEndOfStream) {
  using namespace mflow;
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.flow_table.enabled = true;
  cfg.flow_table.flow_lifetime_batches = 8;
  cfg.nf.enabled = true;
  cfg.nf.strategy = nf::Strategy::kSharedLock;
  cfg.nf.shared_shards = 8;
  cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                        nf::Kind::kLoadBalancer};
  for (int run = 0; run < 2500; ++run) {
    const auto res = Engine(cfg).run(64);
    ASSERT_TRUE(res.in_order) << "run " << run;
    ASSERT_EQ(res.packets, 64u) << "run " << run;
    ASSERT_EQ(res.nf_lock_acquires, 1u) << "run " << run;
  }
}
