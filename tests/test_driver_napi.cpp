// Driver NAPI behaviour: IRQ mitigation, batching, backlog drain — the
// stage-1 dynamics that IRQ-splitting later re-partitions.
#include <gtest/gtest.h>

#include "overlay/topology.hpp"
#include "stack/machine.hpp"
#include "steering/modes.hpp"

using namespace mflow;

namespace {

struct Rig {
  sim::Simulator sim{1};
  stack::Machine machine;

  Rig() : machine(sim, params()) {
    overlay::PathSpec spec;
    spec.overlay = false;
    spec.protocol = net::Ipv4Header::kProtoUdp;
    machine.set_path(overlay::build_rx_path(machine.costs(), spec));
    machine.set_steering(steer::make_policy(exp::Mode::kVanilla));
    stack::SocketConfig sc;
    sc.protocol = net::Ipv4Header::kProtoUdp;
    machine.add_socket(5000, sc);
    machine.start();
  }

  static stack::MachineParams params() {
    stack::MachineParams mp;
    mp.num_cores = 3;
    return mp;
  }

  void burst(int n) {
    for (int i = 0; i < n; ++i) {
      auto p = net::make_udp_datagram(
          net::FlowKey{net::Ipv4Addr(1, 1, 1, 2), net::Ipv4Addr(1, 1, 1, 3),
                       41000, 5000, net::Ipv4Header::kProtoUdp},
          500);
      p->flow_id = 1;
      p->message_id = static_cast<std::uint64_t>(i);
      p->message_bytes = 500;
      machine.nic().deliver(std::move(p), sim.now());
    }
  }
};

}  // namespace

TEST(DriverNapi, IrqChargedOncePerBurst) {
  Rig rig;
  rig.burst(50);  // all arrive at the same instant: one IRQ, then polling
  rig.sim.run();
  EXPECT_EQ(rig.machine.core(1).busy_ns(sim::Tag::kIrq),
            rig.machine.costs().irq);
  EXPECT_EQ(rig.machine.socket(5000).stats().messages, 50u);
}

TEST(DriverNapi, IdleGapsReArmIrq) {
  Rig rig;
  rig.burst(1);
  rig.sim.run();  // drain completely; NAPI re-arms the interrupt
  rig.sim.at(rig.sim.now() + sim::ms(1), [&] { rig.burst(1); });
  rig.sim.run();
  EXPECT_EQ(rig.machine.core(1).busy_ns(sim::Tag::kIrq),
            2 * rig.machine.costs().irq);
}

TEST(DriverNapi, PerPacketCostsScaleLinearly) {
  Rig rig;
  rig.burst(100);
  rig.sim.run();
  const auto& costs = rig.machine.costs();
  EXPECT_EQ(rig.machine.core(1).busy_ns(sim::Tag::kDriver),
            100 * costs.driver_poll_per_pkt);
  EXPECT_EQ(rig.machine.core(1).busy_ns(sim::Tag::kSkbAlloc),
            100 * costs.skb_alloc);
}

TEST(DriverNapi, RingOverrunDropsExcess) {
  sim::Simulator sim(1);
  stack::MachineParams mp;
  mp.num_cores = 3;
  mp.nic.ring_capacity = 16;
  stack::Machine m(sim, mp);
  overlay::PathSpec spec;
  spec.overlay = false;
  spec.protocol = net::Ipv4Header::kProtoUdp;
  m.set_path(overlay::build_rx_path(m.costs(), spec));
  m.set_steering(steer::make_policy(exp::Mode::kVanilla));
  stack::SocketConfig sc;
  sc.protocol = net::Ipv4Header::kProtoUdp;
  m.add_socket(5000, sc);
  m.start();
  for (int i = 0; i < 64; ++i) {
    auto p = net::make_udp_datagram(
        net::FlowKey{net::Ipv4Addr(1, 1, 1, 2), net::Ipv4Addr(1, 1, 1, 3),
                     41000, 5000, net::Ipv4Header::kProtoUdp},
        500);
    p->flow_id = 1;
    p->message_bytes = 500;
    m.nic().deliver(std::move(p), 0);  // all at t=0: ring fills
  }
  sim.run();
  EXPECT_GT(m.nic().total_drops(), 0u);
  EXPECT_EQ(m.socket(5000).stats().skbs + m.nic().total_drops(), 64u);
}
