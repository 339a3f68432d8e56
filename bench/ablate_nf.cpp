// Stateful-NF ablation: what does a stateful middlebox chain cost under
// MFLOW's packet-level parallelism, and which state strategy keeps the
// split worth having?
//
//   A. DES goodput/p99 sweep: UDP elephant through chain {fw, nat+fw+lb}
//      x strategy {lock, affinity, scr} x steering {vanilla, mflow d=2,
//      mflow d=3}, plus the NF-off baseline per steering. The shared lock
//      pays a contention penalty on every core the split spreads the flow
//      over; flow affinity un-splits the flow at the NF; SCR keeps the
//      split and pays only the compact replicated update.
//      Acceptance: scr >= 1.3x lock at split degree >= 2 on >= 1 chain.
//   B. State-strategy equality (DES): paced lossless TCP through all three
//      strategies — the merged per-flow state digest must be identical
//      (SCR's merge is exact, not approximate).
//   C. rt engine: the same chain over real threads, lossless — packet
//      conservation (state segs == delivered packets) and digest equality
//      across strategies; in overlay mode the NAT stage rewrites real
//      decapsulated header bytes.
//
// All recorded values are DES-deterministic (plus deterministic rt
// counters), so CI compares them at a tight tolerance; see ci.yml.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "experiment/report.hpp"
#include "experiment/scenario.hpp"
#include "rt/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mflow;

namespace {

std::string fmt(double v, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

struct ChainCase {
  std::string label;
  std::vector<nf::Kind> chain;
};

struct SteerCase {
  std::string label;
  int degree;  // 1 = vanilla (no split), >1 = mflow split degree
};

exp::ScenarioConfig des_config(const SteerCase& steer, sim::Time measure) {
  exp::ScenarioConfig cfg;
  cfg.protocol = net::Ipv4Header::kProtoUdp;
  cfg.message_size = 65536;
  cfg.measure = measure;
  if (steer.degree <= 1) {
    cfg.mode = exp::Mode::kVanilla;
  } else {
    cfg.mode = exp::Mode::kMflow;
    auto mcfg = core::udp_device_scaling_config();
    mcfg.splitting_cores.clear();
    for (int c = 0; c < steer.degree; ++c)
      mcfg.splitting_cores.push_back(2 + c);
    cfg.mflow = mcfg;
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto measure = sim::ms(cli.get_double("measure-ms", 25));

  bench::HarnessConfig hc;
  hc.bench_name = "ablate_nf";
  hc.warmup = 0;
  hc.repeats = 1;
  hc.json_dir = cli.get("json-dir", ".");
  hc.config = {{"measure_ms", std::to_string(measure / 1'000'000)}};
  bench::Harness harness(hc);

  std::vector<exp::Expectation> checks;

  const std::vector<ChainCase> chains = {
      {"fw", {nf::Kind::kFirewall}},
      {"natfwlb",
       {nf::Kind::kNat, nf::Kind::kFirewall, nf::Kind::kLoadBalancer}},
  };
  const std::vector<SteerCase> steers = {
      {"vanilla", 1}, {"mflow.d2", 2}, {"mflow.d3", 3}};
  const std::vector<std::pair<std::string, nf::Strategy>> strategies = {
      {"lock", nf::Strategy::kSharedLock},
      {"affinity", nf::Strategy::kFlowAffinity},
      {"scr", nf::Strategy::kScr},
  };

  // --- A: goodput/p99 sweep ---------------------------------------------------
  bool scr_beats_lock = false;
  util::Table sweep({"steering", "chain", "nf off", "lock", "affinity",
                     "scr", "scr/lock"});
  for (const SteerCase& steer : steers) {
    const auto off = exp::run_scenario(des_config(steer, measure));
    harness.record("des." + steer.label + ".nfoff", "Gbps", true,
                   off.goodput_gbps);
    for (const ChainCase& chain : chains) {
      double lock_gbps = 0;
      std::vector<std::string> row{steer.label, chain.label,
                                   util::fmt_gbps(off.goodput_gbps)};
      for (const auto& [sname, strat] : strategies) {
        auto cfg = des_config(steer, measure);
        cfg.nf.enabled = true;
        cfg.nf.strategy = strat;
        cfg.nf.chain.chain = chain.chain;
        const auto res = exp::run_scenario(cfg);
        const std::string key =
            "des." + steer.label + "." + chain.label + "." + sname;
        harness.record(key + ".gbps", "Gbps", true, res.goodput_gbps);
        harness.record(key + ".p99_us", "us", /*higher_is_better=*/false,
                       res.p99_latency_us());
        row.push_back(util::fmt_gbps(res.goodput_gbps));
        if (sname == "lock") lock_gbps = res.goodput_gbps;
        if (sname == "scr") {
          const double ratio =
              lock_gbps > 0 ? res.goodput_gbps / lock_gbps : 0;
          row.push_back(fmt(ratio, 2));
          if (steer.degree >= 2 && ratio >= 1.3) scr_beats_lock = true;
        }
      }
      sweep.add_row(std::move(row));
    }
  }
  sweep.print(std::cout,
              "A: UDP elephant goodput, chain x strategy x steering");
  std::cout << "\n";
  checks.push_back({"scr >= 1.3x lock at split degree >= 2", 1.0,
                    scr_beats_lock ? 1.0 : 0.0, 0.01});

  // --- B: merged-state digest equality across strategies (DES) ---------------
  // Paced lossless TCP, 4 flows, with the senders quiesced half-way through
  // the measurement window so the in-flight tail drains before the run
  // ends: every strategy then processes the IDENTICAL message multiset,
  // and the merged lattice state must be bit-identical — counters
  // included, not just bindings.
  {
    std::vector<std::uint64_t> digests;
    std::uint64_t flows = 0;
    for (const auto& [sname, strat] : strategies) {
      exp::ScenarioConfig cfg;
      cfg.mode = exp::Mode::kMflow;
      cfg.protocol = net::Ipv4Header::kProtoTcp;
      cfg.num_flows = 4;
      cfg.message_size = 65536;
      cfg.measure = measure;
      cfg.pace_per_message = sim::ms(1);  // well under every capacity
      for (int f = 0; f < cfg.num_flows; ++f)
        cfg.rate_changes.push_back(
            {f, cfg.warmup + measure / 2, sim::seconds(10)});  // stop sending
      cfg.nf.enabled = true;
      cfg.nf.strategy = strat;
      cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                            nf::Kind::kLoadBalancer};
      const auto res = exp::run_scenario(cfg);
      digests.push_back(res.nf_state_digest);
      flows = res.nf_flows_live;
    }
    const bool equal = digests.size() == strategies.size() &&
                       std::all_of(digests.begin(), digests.end(),
                                   [&](std::uint64_t d) {
                                     return d == digests.front();
                                   });
    std::cout << "B: DES merged-state digest over " << flows
              << " flows: " << (equal ? "EQUAL" : "MISMATCH")
              << " across lock/affinity/scr\n\n";
    checks.push_back({"DES state digest equal across strategies", 1.0,
                      equal ? 1.0 : 0.0, 0.01});
    harness.record("des.tcp.paced.state_flows", "flows", true,
                   static_cast<double>(flows));
  }

  // --- C: rt engine, lossless conservation + digest equality -----------------
  {
    constexpr std::uint64_t kTotal = 20000;
    std::vector<std::uint64_t> digests;
    std::uint64_t delivered = 0, state_segs = 0, rewrites = 0;
    for (const auto& [sname, strat] : strategies) {
      rt::EngineConfig rc;
      rc.workers = 2;
      rc.batch_size = 64;
      rc.cost_ns_per_packet = 0;
      rc.overlay.enabled = true;
      rc.overlay.flows = 8;
      rc.nf.enabled = true;
      rc.nf.strategy = strat;
      rc.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                           nf::Kind::kLoadBalancer};
      const auto res = rt::Engine(rc).run(kTotal);
      digests.push_back(res.nf_state_digest);
      delivered = res.packets;
      rewrites = res.nf_nat_rewrites;
      state_segs = 0;
      for (const auto& [fid, st] : res.nf_state) state_segs += st.fw.segs;
    }
    const bool equal = std::all_of(
        digests.begin(), digests.end(),
        [&](std::uint64_t d) { return d == digests.front(); });
    std::cout << "C: rt lossless — delivered=" << delivered
              << " state_segs=" << state_segs << " nat_rewrites=" << rewrites
              << "; digest " << (equal ? "EQUAL" : "MISMATCH")
              << " across strategies\n\n";
    harness.record("rt.nf.delivered", "pkts", true,
                   static_cast<double>(delivered));
    harness.record("rt.nf.state_segs", "segs", true,
                   static_cast<double>(state_segs));
    checks.push_back({"rt conservation: state segs == delivered", 1.0,
                      state_segs == delivered && delivered == kTotal ? 1.0
                                                                    : 0.0,
                      0.01});
    checks.push_back({"rt state digest equal across strategies", 1.0,
                      equal ? 1.0 : 0.0, 0.01});
    checks.push_back({"rt NAT rewrote real bytes", 1.0,
                      rewrites == kTotal ? 1.0 : 0.0, 0.01});
  }

  exp::print_expectations(std::cout, "NF ablation checks", checks);
  harness.finish(std::cout);
  return 0;
}
