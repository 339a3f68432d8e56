// Fast-path cache ablation (the experiment ONCache and the paper never ran
// together): what does a per-flow encap/decap cache do to overlay
// throughput, latency, and — the MFLOW question — to the optimal split
// degree of the very stage the cache shrinks?
//
//   A. fig08-style steady-state throughput, vanilla overlay, cache off/on
//      (TCP and UDP elephants at 64KB). Acceptance: cache-on >= 1.20x off.
//   B. fig09-style latency at equal offered load, cache off/on.
//   C. cache-miss storm: 32 concurrent flows churning through a 4-entry
//      cache — eviction thrash holds the hit rate near zero, and goodput
//      must degrade no further than the probe overhead.
//   D. MFLOW split-degree sweep (UDP device scaling), cache off/on: cached
//      encap shrinks the VXLAN stage, so the minimal degree that reaches
//      the plateau drops.
//   E. rt engine overlay mode: per-worker cache hit rates (lossless config,
//      so the counts are deterministic; wall-clock pps is NOT recorded —
//      it would flake any tight-tolerance baseline).
//
// All recorded values are DES-deterministic (plus the deterministic rt
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

exp::ScenarioConfig base_config(std::uint8_t proto, bool cache,
                                sim::Time measure) {
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kVanilla;
  cfg.protocol = proto;
  cfg.message_size = 65536;
  cfg.measure = measure;
  cfg.fastpath.enabled = cache;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto measure = sim::ms(cli.get_double("measure-ms", 40));

  bench::HarnessConfig hc;
  hc.bench_name = "ablate_flowcache";
  hc.warmup = 0;
  hc.repeats = 1;
  hc.json_dir = cli.get("json-dir", ".");
  hc.config = {{"measure_ms", std::to_string(measure / 1'000'000)}};
  bench::Harness harness(hc);

  std::vector<exp::Expectation> checks;

  // --- A: steady-state throughput, cache off/on ------------------------------
  util::Table tput({"workload", "cache off", "cache on", "ratio",
                    "hit rate"});
  double tcp_off = 0, tcp_on = 0, udp_off = 0, udp_on = 0;
  for (std::uint8_t proto :
       {net::Ipv4Header::kProtoTcp, net::Ipv4Header::kProtoUdp}) {
    const bool is_tcp = proto == net::Ipv4Header::kProtoTcp;
    const std::string label = is_tcp ? "tcp" : "udp";
    const auto off = exp::run_scenario(base_config(proto, false, measure));
    const auto on = exp::run_scenario(base_config(proto, true, measure));
    (is_tcp ? tcp_off : udp_off) = off.goodput_gbps;
    (is_tcp ? tcp_on : udp_on) = on.goodput_gbps;
    harness.record(label + ".vanilla.msg65536.cacheoff", "Gbps", true,
                   off.goodput_gbps);
    harness.record(label + ".vanilla.msg65536.cacheon", "Gbps", true,
                   on.goodput_gbps);
    harness.record(label + ".vanilla.msg65536.hit_rate_pct", "%", true,
                   on.cache_hit_rate() * 100.0);
    tput.add_row({label + " 64KB elephant", util::fmt_gbps(off.goodput_gbps),
                  util::fmt_gbps(on.goodput_gbps),
                  fmt(off.goodput_gbps > 0
                          ? on.goodput_gbps / off.goodput_gbps
                          : 0, 2),
                  fmt(on.cache_hit_rate() * 100.0, 1) + "%"});
    checks.push_back({label + " cache-on/off >= 1.20", 1.0,
                      off.goodput_gbps > 0 &&
                              on.goodput_gbps >= 1.20 * off.goodput_gbps
                          ? 1.0
                          : 0.0,
                      0.01});
  }
  tput.print(std::cout, "A: vanilla-overlay throughput, cache off/on");
  std::cout << "\n";

  // --- B: latency at equal offered load, cache off/on ------------------------
  // Offer ~70% of the cache-OFF UDP capacity to both variants so the
  // comparison is pure data-path + queueing (fig09 methodology).
  {
    const double msgs_per_sec =
        udp_off > 0 ? udp_off * 1e9 / 8.0 / 65536.0 : 1.0;
    util::Table lat({"variant", "mean us", "p50 us", "p99 us"});
    double mean_off = 0;
    for (bool cache : {false, true}) {
      auto cfg = base_config(net::Ipv4Header::kProtoUdp, cache, measure);
      cfg.pace_per_message = static_cast<sim::Time>(
          1e9 * cfg.udp_clients / (msgs_per_sec * 0.7));
      const auto res = exp::run_scenario(cfg);
      const std::string label = cache ? "cacheon" : "cacheoff";
      harness.record("udp.paced70.p99_us." + label, "us", false,
                     res.p99_latency_us());
      harness.record("udp.paced70.mean_us." + label, "us", false,
                     res.mean_latency_us());
      lat.add_row({label, fmt(res.mean_latency_us(), 1),
                   fmt(res.p50_latency_us(), 1),
                   fmt(res.p99_latency_us(), 1)});
      if (!cache)
        mean_off = res.mean_latency_us();
      else
        checks.push_back({"udp paced mean latency on < off", 1.0,
                          res.mean_latency_us() < mean_off ? 1.0 : 0.0, 0.01});
    }
    lat.print(std::cout, "B: UDP latency at 70% of cache-off capacity");
    std::cout << "\n";
  }

  // --- C: cache-miss storm under flow churn ----------------------------------
  // 32 TCP flows through a 4-entry cache: every arrival evicts, the hit
  // rate collapses, and the cost paid is probe + futile insert — bounded
  // overhead, not a cliff.
  {
    auto storm_cfg = [&](bool cache, std::size_t capacity) {
      auto cfg = base_config(net::Ipv4Header::kProtoTcp, cache, measure);
      cfg.num_flows = 32;
      cfg.app_cores = 1;
      if (cache) cfg.fastpath.capacity = capacity;
      return cfg;
    };
    const auto off = exp::run_scenario(storm_cfg(false, 0));
    const auto ample = exp::run_scenario(storm_cfg(true, 1024));
    const auto storm = exp::run_scenario(storm_cfg(true, 4));
    harness.record("tcp.flows32.cacheoff", "Gbps", true, off.goodput_gbps);
    harness.record("tcp.flows32.ample1024", "Gbps", true, ample.goodput_gbps);
    harness.record("tcp.flows32.storm4", "Gbps", true, storm.goodput_gbps);
    harness.record("tcp.flows32.storm4.hit_rate_pct", "%", false,
                   storm.cache_hit_rate() * 100.0);
    util::Table st({"variant", "Gbps", "hit rate", "evictions"});
    st.add_row({"cache off", util::fmt_gbps(off.goodput_gbps), "-", "-"});
    st.add_row({"capacity 1024", util::fmt_gbps(ample.goodput_gbps),
                fmt(ample.cache_hit_rate() * 100.0, 1) + "%",
                std::to_string(ample.cache_evictions)});
    st.add_row({"capacity 4 (storm)", util::fmt_gbps(storm.goodput_gbps),
                fmt(storm.cache_hit_rate() * 100.0, 1) + "%",
                std::to_string(storm.cache_evictions)});
    st.print(std::cout, "C: 32-flow churn vs 4-entry cache");
    std::cout << "\n";
    checks.push_back({"storm hit rate collapses (< 35%)", 1.0,
                      storm.cache_hit_rate() < 0.35 ? 1.0 : 0.0, 0.01});
    checks.push_back({"storm goodput >= 0.90x cache-off", 1.0,
                      off.goodput_gbps > 0 &&
                              storm.goodput_gbps >= 0.90 * off.goodput_gbps
                          ? 1.0
                          : 0.0,
                      0.01});
  }

  // --- D: MFLOW split-degree sweep, cache off/on ------------------------------
  // Does the optimal split degree drop when encap is cached? Report the
  // minimal degree reaching >= 97% of that variant's best goodput.
  {
    util::Table sweep({"cache", "d=1", "d=2", "d=3", "d=4", "min d @97%"});
    int opt_off = 0, opt_on = 0;
    for (bool cache : {false, true}) {
      std::vector<double> gbps;
      std::vector<std::string> row{cache ? "on" : "off"};
      for (int degree = 1; degree <= 4; ++degree) {
        exp::ScenarioConfig cfg;
        cfg.mode = exp::Mode::kMflow;
        cfg.protocol = net::Ipv4Header::kProtoUdp;
        cfg.message_size = 65536;
        cfg.measure = measure;
        cfg.fastpath.enabled = cache;
        auto mcfg = core::udp_device_scaling_config();
        mcfg.splitting_cores.clear();
        for (int c = 0; c < degree; ++c)
          mcfg.splitting_cores.push_back(2 + c);
        cfg.mflow = mcfg;
        const auto res = exp::run_scenario(cfg);
        gbps.push_back(res.goodput_gbps);
        row.push_back(util::fmt_gbps(res.goodput_gbps));
        harness.record(std::string("mflow.udp.sweep.") +
                           (cache ? "on" : "off") + ".d" +
                           std::to_string(degree),
                       "Gbps", true, res.goodput_gbps);
      }
      double best = 0;
      for (double g : gbps) best = std::max(best, g);
      int min_d = 1;
      for (int d = 1; d <= 4; ++d)
        if (gbps[static_cast<std::size_t>(d - 1)] >= 0.97 * best) {
          min_d = d;
          break;
        }
      (cache ? opt_on : opt_off) = min_d;
      row.push_back(std::to_string(min_d));
      sweep.add_row(std::move(row));
    }
    sweep.print(std::cout,
                "D: MFLOW UDP device-scaling split-degree sweep");
    std::cout << "  cached encap shrinks the split stage: plateau degree "
              << opt_off << " (off) -> " << opt_on << " (on)\n\n";
    harness.record("mflow.udp.sweep.plateau_degree.off", "cores", false,
                   opt_off);
    harness.record("mflow.udp.sweep.plateau_degree.on", "cores", false,
                   opt_on);
    checks.push_back({"plateau degree(on) <= degree(off)", 1.0,
                      opt_on <= opt_off ? 1.0 : 0.0, 0.01});
  }

  // --- E: rt engine overlay cache, deterministic hit counts ------------------
  {
    rt::EngineConfig rc;
    rc.workers = 2;
    rc.batch_size = 64;
    rc.cost_ns_per_packet = 0;
    rc.overlay.enabled = true;
    rc.overlay.flows = 8;
    constexpr std::uint64_t kTotal = 20000;
    rc.overlay.cache = false;
    const auto off = rt::Engine(rc).run(kTotal);
    rc.overlay.cache = true;
    const auto on = rt::Engine(rc).run(kTotal);
    rc.rescales = {{8000, 1}, {14000, 2}};
    const auto resc = rt::Engine(rc).run(kTotal);
    const double hit_pct =
        100.0 * static_cast<double>(on.cache_hits) /
        static_cast<double>(std::max<std::uint64_t>(
            on.cache_hits + on.cache_misses, 1));
    std::cout << "E: rt overlay — cache off decap_failures=" <<
        off.decap_failures << "; cache on hit rate " << hit_pct
              << "%, invalidations under rescale=" << resc.cache_invalidations
              << "\n\n";
    harness.record("rt.overlay.hit_rate_pct", "%", true, hit_pct);
    harness.record("rt.overlay.rescale_invalidations", "count", false,
                   static_cast<double>(resc.cache_invalidations));
    checks.push_back({"rt overlay decap ok (off)", 1.0,
                      off.decap_failures == 0 && off.packets == kTotal ? 1.0
                                                                      : 0.0,
                      0.01});
    checks.push_back({"rt cache hit rate > 95%", 1.0,
                      hit_pct > 95.0 ? 1.0 : 0.0, 0.01});
    checks.push_back({"rt rescale invalidates entries", 1.0,
                      resc.cache_invalidations > 0 ? 1.0 : 0.0, 0.01});
  }

  exp::print_expectations(std::cout, "Flow-cache ablation checks", checks);
  harness.finish(std::cout);
  return 0;
}
