// Deterministic interleavings of the rt engine's stage objects.
//
// The threaded engine runs each stage (rt/stages.hpp) on its own thread, so
// which interleaving a run meets is up to the scheduler. This harness runs
// the same Generator, Worker and Merger objects on ONE thread and picks the
// next schedule point from a seeded generator: the generator's step, each
// worker's step, and the merger's exit sample and step, which are separate
// points so a worker can deposit and exit between them. Every schedule is
// replayable from its seed, and a scripted schedule reaches a given window
// on every run. After each schedule the reassembly contract is checked:
// survivors leave in order, delivered + dropped == generated, every
// delivered skb carries the metadata its worker built from the descriptor,
// and the merged NF state equals a per-packet oracle over the delivered
// stream.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "rt/stages.hpp"
#include "rt_skb_oracle.hpp"
#include "util/rng.hpp"

namespace {

using namespace mflow;
using namespace mflow::rt;

/// One run of the stage objects under a schedule chosen by the test.
class Interleaver {
 public:
  Interleaver(const EngineConfig& cfg, std::uint64_t total)
      : maglev_(nf::MaglevTable::build(cfg.nf.chain.lb_backends,
                                       cfg.nf.chain.lb_table_size,
                                       cfg.nf.chain.lb_seed)),
        output_([this](const RtPacket& pkt) { observe_output(pkt); }),
        engine_(cfg),
        adapter_(engine_),
        p_(cfg, total, engine_.capacity(), output_),
        done_(points(), false) {}

  /// Schedule points: 0 the generator, 1..W the workers, W+1 the merger's
  /// exit sample (observe), W+2 the merger's step.
  std::size_t points() const { return p_.workers.size() + 3; }
  std::size_t merger_observe() const { return p_.workers.size() + 1; }
  std::size_t merger_step() const { return p_.workers.size() + 2; }
  bool done(std::size_t point) const { return done_[point]; }
  bool finished() const { return done_[0] && done_[merger_step()]; }

  /// One call at `point`. The merger's exit sample moves nothing, so it
  /// reports kInputDry.
  Step call(std::size_t point) {
    Step s = Step::kProgress;
    if (point == 0) {
      if (before_generator) before_generator();
      s = p_.generator.step();
    } else if (point == merger_observe()) {
      p_.merger.observe();
      return Step::kInputDry;  // samples only: no progress of its own
    } else if (point == merger_step()) {
      s = p_.merger.step();
    } else {
      s = p_.workers[point - 1]->step();
    }
    if (s == Step::kDone) {
      done_[point] = true;
      if (point == merger_step()) done_[merger_observe()] = true;
    }
    return s;
  }

  /// Step `point` until it reports anything but progress.
  Step call_while_progress(std::size_t point) {
    Step s;
    while ((s = call(point)) == Step::kProgress) {
    }
    return s;
  }

  /// Run the rest of the schedule, picking each point with probability
  /// proportional to `weights`. Returns false if the run hangs: a long
  /// stretch in which no stage progresses, or more progress steps than any
  /// terminating schedule takes (a merge counter skipping ahead forever
  /// makes "progress" without delivering). Every progress step moves a
  /// packet chunk, a marker or the merge counter past a batch.
  bool run_weighted(util::Rng& rng, const std::vector<std::uint32_t>& weights) {
    const std::uint64_t budget = 32 * (p_.ctx.total + 4096);
    std::uint64_t progress = 0, idle = 0;
    while (!finished()) {
      if (progress > budget || idle > 20000) return false;
      std::uint64_t sum = 0;
      for (std::size_t k = 0; k < points(); ++k)
        if (!done_[k]) sum += weights[k];
      std::uint64_t pick = rng.uniform(sum);
      std::size_t k = 0;
      while (done_[k] || pick >= weights[k]) {
        if (!done_[k]) pick -= weights[k];
        ++k;
      }
      const Step s = call(k);
      if (s == Step::kProgress || s == Step::kDone) {
        ++progress;
        idle = 0;
      } else {
        ++idle;
      }
    }
    return true;
  }

  /// Per-point weights drawn from `rng`, from 1 to 64 each, so schedules
  /// range from fair to one stage far ahead of the others.
  std::vector<std::uint32_t> random_weights(util::Rng& rng) const {
    std::vector<std::uint32_t> w(points());
    for (auto& x : w) x = 1u << rng.uniform(7);
    return w;
  }

  EngineResult result() const { return p_.result(); }
  const Generator& generator() const { return p_.generator; }

  /// Flip the live capacity request between 2 and 1 workers whenever the
  /// previous request has taken effect.
  void flip_capacity() {
    if (adapter_.active_workers() == want_) {
      want_ = 3 - want_;
      adapter_.set_active_workers(want_);
    }
  }

  std::function<void()> before_generator;  // e.g. flip_capacity
  bool flip_on_output = false;

  /// The single-threaded oracle: the NF chain applied per delivered
  /// packet, in delivery order.
  std::vector<std::pair<net::FlowId, nf::FlowState>> oracle() const {
    return {oracle_.begin(), oracle_.end()};
  }

  /// Delivered packets whose skb metadata differs from the reference, and
  /// the first such field with its seq.
  std::uint64_t skb_mismatches() const { return skb_mismatches_; }
  const std::string& first_skb_mismatch() const { return first_mismatch_; }

 private:
  void observe_output(const RtPacket& pkt) {
    if (const std::string bad = test::skb_mismatch(p_.ctx.cfg, pkt);
        !bad.empty() && skb_mismatches_++ == 0)
      first_mismatch_ = bad + " at seq " + std::to_string(pkt.seq);
    if (p_.ctx.nf_on && pkt.skb) {
      const nf::PacketView v = nf::view_of(*pkt.skb);
      for (const auto kind : p_.ctx.cfg.nf.chain.chain)
        nf::apply(p_.ctx.cfg.nf.chain, &maglev_, kind, v,
                  oracle_[pkt.skb->flow_id]);
    }
    if (flip_on_output) flip_capacity();
  }

  nf::MaglevTable maglev_;
  std::map<net::FlowId, nf::FlowState> oracle_;
  std::uint64_t skb_mismatches_ = 0;
  std::string first_mismatch_;
  RunContext::OutputFn output_;
  Engine engine_;  // owns the live capacity channel the stages read
  EngineCapacityAdapter adapter_;
  Pipeline p_;
  std::vector<bool> done_;
  std::uint32_t want_ = 2;
};

/// The reassembly contract, checked after every schedule.
void expect_contract(const Interleaver& d, std::uint64_t total,
                     const std::string& tag) {
  const EngineResult res = d.result();
  EXPECT_TRUE(res.in_order) << tag;
  EXPECT_EQ(res.packets + res.packets_dropped, total) << tag;
  EXPECT_EQ(res.nf_packets, res.packets) << tag;
  EXPECT_EQ(d.skb_mismatches(), 0u) << tag << ": " << d.first_skb_mismatch();
  const auto want = d.oracle();
  EXPECT_EQ(res.nf_state, want) << tag;
  std::uint64_t h = 0;
  for (const auto& [fid, st] : want) h = nf::fold_digest(h, fid, st);
  EXPECT_EQ(res.nf_state_digest, h) << tag;
}

EngineConfig nf_config(std::size_t workers, std::uint32_t batch) {
  EngineConfig cfg;
  cfg.workers = workers;
  cfg.batch_size = batch;
  cfg.ring_capacity = 32;  // small enough for full rings to happen
  cfg.cost_ns_per_packet = 0;
  cfg.nf.enabled = true;
  cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                        nf::Kind::kLoadBalancer};
  return cfg;
}

struct Shape {
  const char* name;
  EngineConfig cfg;
  std::uint64_t total;
  bool flip_on_output = false;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  {
    EngineConfig c = nf_config(2, 8);
    c.overlay.enabled = true;
    c.overlay.cache = true;
    c.overlay.flows = 8;
    c.nf.strategy = nf::Strategy::kScr;
    out.push_back({"overlay+scr", c, 8 * 60});
  }
  {
    EngineConfig c = nf_config(2, 8);
    c.flow_table.enabled = true;
    c.flow_table.flow_lifetime_batches = 2;
    c.flow_table.ttl_batches = 16;
    c.flow_table.sweep_every = 4;
    c.nf.strategy = nf::Strategy::kSharedLock;
    out.push_back({"churn+lock", c, 8 * 60});
  }
  {
    EngineConfig c = nf_config(3, 8);
    c.fault_drop_rate = 0.02;
    c.nf.strategy = nf::Strategy::kFlowAffinity;
    c.rescales = {{120, 1}, {240, 3}};
    out.push_back({"drops+rescales", c, 8 * 60});
  }
  {
    EngineConfig c = nf_config(2, 2);
    for (std::uint32_t k = 0; k < 100; ++k)
      c.rescales.push_back({k <= 80 ? 0 : 4 * k, k % 2 == 0 ? 1u : 2u});
    out.push_back({"rescales>64", c, 2 * 300});
  }
  {
    EngineConfig c = nf_config(2, 2);
    c.ring_capacity = 256;
    out.push_back({"live-capacity", c, 2 * 300, /*flip_on_output=*/true});
  }
  {
    EngineConfig c = nf_config(2, 64);
    c.overlay.enabled = true;
    c.overlay.flows = 3;
    out.push_back({"partial-batch", c, 64 * 5 + 23});
  }
  return out;
}

constexpr std::uint64_t kSchedulesPerShape = 400;

// Thousands of seeded schedules across the engine's configurations: the
// contract must hold under every one, and the churn table's counts, driven
// by the generator alone, must not depend on the schedule.
TEST(RtInterleave, SeededSchedulesKeepTheReassemblyContract) {
  for (const Shape& shape : shapes()) {
    EngineResult::FlowTableStats first{};
    for (std::uint64_t seed = 1; seed <= kSchedulesPerShape; ++seed) {
      EngineConfig cfg = shape.cfg;
      cfg.fault_seed = seed;
      Interleaver d(cfg, shape.total);
      d.flip_on_output = shape.flip_on_output;
      util::Rng rng(seed);
      const std::string tag =
          std::string(shape.name) + " seed " + std::to_string(seed);
      ASSERT_TRUE(d.run_weighted(rng, d.random_weights(rng)))
          << tag << ": hung";
      expect_contract(d, shape.total, tag);
      const EngineResult res = d.result();
      if (cfg.fault_drop_rate == 0.0) {
        EXPECT_EQ(res.packets_dropped, 0u) << tag;
      }
      if (!cfg.rescales.empty()) {
        EXPECT_EQ(res.rescales_applied, cfg.rescales.size()) << tag;
      }
      if (cfg.flow_table.enabled) {
        if (seed == 1) first = res.flow_table;
        EXPECT_EQ(res.flow_table.peak, first.peak) << tag;
        EXPECT_EQ(res.flow_table.expired, first.expired) << tag;
        EXPECT_EQ(res.flow_table.live, first.live) << tag;
      }
      if (::testing::Test::HasFailure()) return;  // one report is enough
    }
  }
}

// Live capacity requests far past the merger's pending-epoch budget (64):
// the request flips between 2 and 1 workers before every generator step
// once the previous one applied, so an epoch opens at nearly every
// boundary. The generator first runs alone, leading the merge counter by
// more than 64 boundaries by construction, so it meets a full budget and
// is refused; a refused epoch must leave the old mapping in force.
// Remapping anyway sends a batch to a ring the merger does not read it
// from, which hangs the run or breaks the order. With every epoch one batch
// long, ring 1 never owns a batch; owing it a flush marker at every shrink
// filled it with markers until the lossless generator deadlocked, so this
// run also guards the fed-rings-only marker rule. The rest of the run is a
// seeded interleaving of every stage.
TEST(RtInterleave, LiveCapacityPastEpochBudgetStaysOrdered) {
  EngineConfig cfg = nf_config(2, 2);
  cfg.ring_capacity = 2048;
  constexpr std::uint64_t kTotal = 20000;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Interleaver d(cfg, kTotal);
    d.before_generator = [&d] { d.flip_capacity(); };
    // Two steps per applied epoch (markers, then the batch): 200 steps
    // open more than 64 boundaries ahead of a merge counter still at 1.
    for (int k = 0; k < 200; ++k) ASSERT_EQ(d.call(0), Step::kProgress);
    EXPECT_GT(d.generator().counters().epochs_refused, 0u);
    util::Rng rng(seed);
    const std::string tag = "seed " + std::to_string(seed);
    ASSERT_TRUE(d.run_weighted(rng, d.random_weights(rng))) << tag << ": hung";
    expect_contract(d, kTotal, tag);
    const EngineResult res = d.result();
    EXPECT_EQ(res.packets, kTotal) << tag;
    EXPECT_EQ(res.packets_dropped, 0u) << tag;
    EXPECT_GT(res.rescales_applied, 64u) << tag;
  }
}

// The end-of-stream window: the merger pops dry, then the worker holding
// the last batch deposits it and exits, and only then does the merger
// sample the exit count. A merger that decided from a sample taken after
// its dry pop would skip the deposited batch, discard it as a spent
// marker and hang. The script below takes that path on every run, on the
// rt-churn-lock shape (2 workers, churning flow table, nat->fw->lb under
// the shared lock, one micro-flow batch per run).
TEST(RtInterleave, FinalDepositBetweenDryPopAndExitSample) {
  EngineConfig cfg = nf_config(2, 64);
  cfg.ring_capacity = 1024;
  cfg.flow_table.enabled = true;
  cfg.flow_table.flow_lifetime_batches = 8;
  cfg.nf.strategy = nf::Strategy::kSharedLock;
  for (std::uint64_t total : {64u, 128u, 64u + 5u}) {
    Interleaver d(cfg, total);
    ASSERT_EQ(d.call_while_progress(0), Step::kDone);  // everything split
    d.call(d.merger_observe());
    ASSERT_EQ(d.call(d.merger_step()), Step::kInputDry);  // dry pop
    for (std::size_t w = 1; w <= cfg.workers; ++w)
      ASSERT_EQ(d.call_while_progress(w), Step::kDone);  // deposit, exit
    util::Rng rng(total);
    const std::vector<std::uint32_t> merger_only = {0, 0, 0, 1, 1};
    ASSERT_TRUE(d.run_weighted(rng, merger_only)) << total << ": hung";
    expect_contract(d, total, std::to_string(total) + " packets");
    const EngineResult res = d.result();
    EXPECT_EQ(res.packets, total);
    EXPECT_EQ(res.nf_lock_acquires, (total + 63) / 64);
  }
}

}  // namespace
