// Benchmark driver: runs ONE workload for a fixed wall-time budget and
// prints its raw samples and correctness verdicts, one record per line
// (format below). perfbench/run.py builds this binary, turns the samples
// into medians and quartiles, applies the verdicts and prints the result.
//
//   perfbench_driver --workload=rt-overlay-scr --seed=1 --seconds=10 --trace=0
//
// Workloads (public entry points only — rt::Engine::run, exp::run_scenario):
//   rt-overlay-scr  2 workers, real VXLAN bytes, per-worker flow cache,
//                   nat->fw->lb under state-compute replication
//   rt-churn-lock   2 workers, metadata-only packets, churning flow table,
//                   nat->fw->lb under one shared sharded lock
//   des-mixed       the ablate_dynamic_scaling dynamic configuration with
//                   the fast path and nat->fw->lb under SCR
//
// --trace=0 measures the end-to-end samples (setup, throughput, memory).
// --trace=1 measures the per-layer numbers instead: the rt profiler or the
// DES tracer on a separate run, plus single-threaded replays of the layer
// functions on the workload's own flows (see replay_layers()).
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "control/flowtable.hpp"
#include "experiment/scenario.hpp"
#include "net/packet.hpp"
#include "nf/nf.hpp"
#include "rt/engine.hpp"
#include "rt/pool.hpp"
#include "rt/reassembler.hpp"
#include "rt/spsc_ring.hpp"
#include "rt/topology.hpp"
#include "sim/core.hpp"

using namespace mflow;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- output -------------------------------------------------------------------------------
//
// One record per line, fields separated by single spaces:
//
//   sample <metric> <value> <ops>   one measurement; run.py reports the
//                                   median of a metric's values and the sum
//                                   of its ops (operations behind them)
//   check <name> <1|0> [detail]     one correctness verdict; detail on failure
//   ops <attempted> <failed>        operations attempted / failed
//   mouse_latency_us <pct> <us> <n> one point of the DES mouse latency ladder
//
// stdout is line-buffered, so the records written before a hang survive.

void sample(std::string_view metric, double value, std::uint64_t ops = 1) {
  std::printf("sample %.*s %.17g %llu\n", static_cast<int>(metric.size()),
              metric.data(), value, static_cast<unsigned long long>(ops));
}

void check(std::string_view name, bool ok, const std::string& detail = {}) {
  std::printf("check %.*s %d%s%s\n", static_cast<int>(name.size()),
              name.data(), ok ? 1 : 0, ok ? "" : " ", ok ? "" : detail.c_str());
}

void count_ops(std::uint64_t attempted, std::uint64_t failed) {
  std::printf("ops %llu %llu\n", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
}

/// Peak resident memory of this process since the last reset_peak_rss(),
/// in MB: VmHWM of /proc/self/status. (getrusage's ru_maxrss would carry
/// over the peak of the process that launched the driver, across exec.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// Restarts the peak at the current resident size, so each timed run
/// reports its own peak.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Timed runs every workload makes at least.
constexpr int kMinRuns = 3;

/// Set-up is repeated this many times per invocation; run.py reports the
/// median.
constexpr int kSetupRepeats = 24;

// --- CPU rotation ----------------------------------------------------------------------
//
// On a shared host one CPU can run markedly slower than another for
// minutes, and a single-threaded measurement reads whichever CPU the
// scheduler chose. Pinning each single-threaded sample to the next allowed
// CPU in turn makes every invocation sample every CPU equally, so its
// median does not hinge on placement. The pin is always taken before a
// sample's timer starts.

class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
  /// Pins the calling thread to the next allowed CPU.
  void pin_next() {
    if (!cpus_.empty()) rt::pin_current_thread(cpus_[next_++ % cpus_.size()]);
  }
  /// Gives the calling thread back the affinity the process started with.
  void release() { sched_setaffinity(0, sizeof original_, &original_); }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- workload definitions ---------------------------------------------------------

constexpr std::uint32_t kBatchSize = 64;
constexpr std::uint32_t kOverlayFlows = 64;
constexpr std::size_t kNfStateCapacity = 16384;

nf::ChainConfig nat_fw_lb() {
  nf::ChainConfig chain;
  chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                 nf::Kind::kLoadBalancer};
  return chain;
}

rt::EngineConfig rt_base(std::uint64_t seed) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = kBatchSize;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;  // lossless
  // The only seeded input of the rt engine; with fault_drop_rate == 0 it
  // draws nothing, so the generated stream is deterministic by construction.
  cfg.fault_seed = seed;
  cfg.nf.enabled = true;
  cfg.nf.chain = nat_fw_lb();
  cfg.nf.state_capacity = kNfStateCapacity;
  return cfg;
}

rt::EngineConfig overlay_scr_config(std::uint64_t seed) {
  rt::EngineConfig cfg = rt_base(seed);
  cfg.overlay.enabled = true;
  cfg.overlay.cache = true;
  cfg.overlay.flows = kOverlayFlows;
  cfg.overlay.cache_slots = 256;
  cfg.nf.strategy = nf::Strategy::kScr;
  return cfg;
}

rt::EngineConfig churn_lock_config(std::uint64_t seed) {
  rt::EngineConfig cfg = rt_base(seed);
  cfg.flow_table.enabled = true;
  cfg.flow_table.flow_lifetime_batches = 8;
  cfg.nf.strategy = nf::Strategy::kSharedLock;
  cfg.nf.shared_shards = 8;
  return cfg;
}

struct DesSetup {
  int flows = 20;
  int elephants = 4;
  sim::Time warmup = sim::ms(8);
  sim::Time measure = sim::ms(640);
  sim::Time mouse_pace = sim::ms(8);
};

/// The ablate_dynamic_scaling "dynamic" system plus the overlay fast path
/// and an SCR nat->fw->lb chain.
exp::ScenarioBuilder des_mixed_builder(const DesSetup& s, std::uint64_t seed) {
  exp::ScenarioBuilder b;
  b.tcp(s.flows)
      .message_size(65536)
      .layout(/*server_cores=*/8, /*app_cores=*/1, /*first_kernel_core=*/1,
              /*kernel_cores=*/7)
      .windows(s.warmup, s.measure)
      .seed(seed);
  for (int i = s.elephants; i < s.flows; ++i)
    b.rate_change(i, 1, s.mouse_pace);
  core::MflowConfig mcfg = core::udp_device_scaling_config();
  mcfg.tcp_in_reader = true;
  mcfg.splitting_cores = {2, 3, 4, 5};
  b.mode(exp::Mode::kMflow)
      .mflow(mcfg)
      .control([](exp::ScenarioConfig::ControlPlane& cp) {
        cp.interval = sim::us(100);
        cp.params.monitor.window = sim::ms(4);
        cp.params.monitor.max_samples = 64;
        cp.params.classifier.promote_pps = 200'000;
        cp.params.classifier.demote_pps = 100'000;
        cp.params.classifier.dwell = sim::ms(1);
        cp.params.scaling.per_core_pps = 150'000;
      })
      .fastpath()
      .nf([](exp::ScenarioConfig::Nf& n) {
        n.strategy = nf::Strategy::kScr;
        n.chain = nat_fw_lb();
        n.state_capacity = kNfStateCapacity;
      });
  return b;
}

// --- rt workloads --------------------------------------------------------------------

struct RtRun {
  rt::EngineResult res;
  std::uint64_t total = 0;
};

RtRun run_engine(const rt::EngineConfig& cfg, std::uint64_t total) {
  rt::Engine engine(cfg);
  return {engine.run(total), total};
}

/// Per-run correctness; reports the run's packets as operations, failed
/// when dropped or (all of them) when delivered out of order.
void check_rt_run(const rt::EngineConfig& cfg, const RtRun& run,
                  std::uint64_t digest0, int index) {
  const auto& r = run.res;
  const std::string tag = "run" + std::to_string(index) + ": ";
  check("rt.in_order", r.in_order, tag + "EngineResult::in_order");
  check("rt.delivered_eq_generated",
        r.packets == run.total && r.packets_dropped == 0,
        tag + std::to_string(r.packets) + " delivered, " +
            std::to_string(r.packets_dropped) + " dropped of " +
            std::to_string(run.total));
  if (cfg.overlay.enabled) {
    check("rt.cache_accounting",
          r.cache_hits + r.cache_misses == r.packets && r.decap_failures == 0,
          tag + std::to_string(r.cache_hits) + " hits + " +
              std::to_string(r.cache_misses) + " misses vs " +
              std::to_string(r.packets) + " packets");
  }
  check("rt.nf_packets", r.nf_packets == r.packets,
        tag + std::to_string(r.nf_packets) + " NF packets");
  check("rt.nf_digest_stable", r.nf_state_digest == digest0,
        tag + "digest " + std::to_string(r.nf_state_digest) +
            " vs first run " + std::to_string(digest0));
  const std::uint64_t lost = run.total - std::min(run.total, r.packets);
  count_ops(run.total, r.in_order ? lost : run.total);
}

using ConfigFn = rt::EngineConfig (*)(std::uint64_t seed);

/// End-to-end rt measurement: repeated fixed-size runs until the budget is
/// spent; one throughput sample per run.
void rt_end_to_end(CpuRotation& cpus, ConfigFn make_config,
                   std::uint64_t seed, std::uint64_t per_run,
                   double budget_s) {
  // Set-up: config build plus one engine run of a single micro-flow batch
  // (pool, rings, Maglev table, state tables, thread spawn and join), the
  // fixed cost every run pays before its first packet moves. Most of it is
  // single-threaded construction on the calling thread, so the samples
  // rotate over the CPUs.
  for (int k = 0; k < kSetupRepeats; ++k) {
    cpus.pin_next();
    const auto t0 = Clock::now();
    const rt::EngineConfig cfg = make_config(seed);
    const RtRun warm = run_engine(cfg, cfg.batch_size);
    sample("setup_s", seconds_since(t0));
    const bool complete =
        warm.res.in_order && warm.res.packets == cfg.batch_size;
    check("rt.setup_run_complete", complete,
          "set-up run delivered " + std::to_string(warm.res.packets));
    count_ops(warm.total, complete ? 0 : warm.total);
  }
  // The timed runs are the workload itself: the engine's threads go
  // wherever the scheduler puts them.
  cpus.release();
  const rt::EngineConfig base = make_config(seed);
  const auto t0 = Clock::now();
  std::uint64_t digest0 = 0;
  for (int i = 0; i < kMinRuns || seconds_since(t0) < budget_s; ++i) {
    reset_peak_rss();
    const RtRun run = run_engine(base, per_run);
    sample("peak_rss_mb", peak_rss_mb());
    if (i == 0) digest0 = run.res.nf_state_digest;
    check_rt_run(base, run, digest0, i);
    sample("mpps", run.res.packets_per_second() / 1e6, run.res.packets);
  }
}

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Reports a profiled run's busy/stall fractions, one sample per run.
void profile_samples(const rt::EngineResult& r) {
  const auto& p = r.profile;
  std::uint64_t wk_active = 0, wk_stall = 0, wk_dry = 0;
  std::uint64_t split_occ = 0, split_samples = 0;
  for (const auto& w : p.worker) {
    wk_active += w.active_ns;
    wk_stall += w.stall_ns();
    wk_dry += w.input_dry_ns;
    split_occ += w.occupancy_sum;
    split_samples += w.occupancy_samples;
  }
  const auto& g = p.generator;
  const auto& c = p.consumer;
  sample("rt.generator.busy_frac", 1.0 - frac(g.stall_ns(), g.active_ns));
  sample("rt.generator.output_full_frac", frac(g.output_full_ns, g.active_ns));
  sample("rt.pool.dry_frac", frac(g.pool_dry_ns, g.active_ns));
  sample("rt.worker.busy_frac", 1.0 - frac(wk_stall, wk_active));
  sample("rt.worker.input_dry_frac", frac(wk_dry, wk_active));
  sample("rt.consumer.busy_frac", 1.0 - frac(c.stall_ns(), c.active_ns));
  sample("rt.split_ring.occupancy", frac(split_occ, split_samples),
         split_samples);
  sample("rt.merge_ring.occupancy", frac(c.occupancy_sum, c.occupancy_samples),
         c.occupancy_samples);
  const std::uint64_t returns = r.recycle_ring_returns + r.recycle_cas_fallbacks;
  sample("rt.recycle.ring_share", frac(r.recycle_ring_returns, returns),
         returns);
  const std::uint64_t lookups = r.cache_hits + r.cache_misses;
  sample("rt.flowcache.hit_frac", frac(r.cache_hits, lookups), lookups);
  sample("nf.lock_acquires_per_pkt", frac(r.nf_lock_acquires, r.packets),
         r.packets);
  sample("nf.flows", static_cast<double>(r.nf_flows));
  sample("control.flowtable.peak", static_cast<double>(r.flow_table.peak));
  sample("control.flowtable.expired",
         static_cast<double>(r.flow_table.expired));
}

/// Traced rt measurement: pairs of one unprofiled and one profiled run, so
/// the profiler's own cost is measured against a run sharing its moment.
void rt_per_layer(const rt::EngineConfig& base, std::uint64_t per_run,
                  double budget_s) {
  rt::EngineConfig prof_cfg = base;
  prof_cfg.profile = true;
  std::uint64_t digest0 = 0;
  int index = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 2 || seconds_since(t0) < budget_s; ++i) {
    const RtRun plain = run_engine(base, per_run);
    if (index == 0) digest0 = plain.res.nf_state_digest;
    check_rt_run(base, plain, digest0, index++);
    const RtRun prof = run_engine(prof_cfg, per_run);
    check_rt_run(prof_cfg, prof, digest0, index++);
    profile_samples(prof.res);
    const double prof_pps = prof.res.packets_per_second();
    sample("rt.profile_overhead_frac",
           prof_pps > 0 ? plain.res.packets_per_second() / prof_pps - 1.0
                        : 0.0);
  }
}

// --- DES workload ---------------------------------------------------------------------

struct DesRun {
  exp::ScenarioResult res;
  double wall_s = 0.0;
};

DesRun run_des(const exp::ScenarioConfig& cfg) {
  const auto t0 = Clock::now();
  DesRun run{exp::run_scenario(cfg), 0.0};
  run.wall_s = seconds_since(t0);
  return run;
}

double elephant_gbps(const exp::ScenarioResult& r, const DesSetup& s) {
  double total = 0.0;
  for (int i = 0; i < s.elephants; ++i)
    total += r.per_port[static_cast<std::size_t>(i)].goodput_gbps;
  return total;
}

util::Histogram mouse_latency(const exp::ScenarioResult& r,
                              const DesSetup& s) {
  util::Histogram merged{6};
  for (int i = s.elephants; i < s.flows; ++i)
    merged.merge(r.per_port[static_cast<std::size_t>(i)].latency);
  return merged;
}

bool same_simulation(const exp::ScenarioResult& a,
                     const exp::ScenarioResult& b) {
  return a.goodput_gbps == b.goodput_gbps && a.messages == b.messages &&
         a.events == b.events && a.nf_state_digest == b.nf_state_digest &&
         a.nf_segs == b.nf_segs && a.latency.count() == b.latency.count() &&
         a.latency.p99() == b.latency.p99();
}

void check_des_run(const DesRun& first, const DesRun& run, int index) {
  const std::string tag = "run" + std::to_string(index) + ": ";
  check("des.bit_identical", same_simulation(first.res, run.res),
        tag + "goodput/messages/events/NF digest vs run0");
  check("des.traffic_flowed", run.res.messages > 0 && run.res.nf_segs > 0,
        tag + std::to_string(run.res.messages) + " messages");
  // Operations are the wire segments offered in the measurement window:
  // those that reached the NF stages plus those lost on the way (NIC ring
  // overflow, injected drops).
  const std::uint64_t lost = run.res.nic_drops + run.res.injected_drop_segs;
  count_ops(run.res.nf_segs + lost, lost);
}

void des_end_to_end(CpuRotation& cpus, std::uint64_t seed, double budget_s) {
  // Set-up: builder + validate + full scenario assembly (machine, stages,
  // slab pool, NF layer, control plane, senders) with a 1 us window, so
  // simulation time is negligible next to construction.
  DesSetup tiny;
  tiny.warmup = sim::us(1);
  tiny.measure = sim::us(1);
  for (int k = 0; k < kSetupRepeats; ++k) {
    cpus.pin_next();
    const auto t0 = Clock::now();
    const exp::ScenarioConfig cfg = des_mixed_builder(tiny, seed).build();
    (void)exp::run_scenario(cfg);
    sample("setup_s", seconds_since(t0));
  }
  const DesSetup s;
  const exp::ScenarioConfig cfg = des_mixed_builder(s, seed).build();
  const auto t0 = Clock::now();
  DesRun first;
  for (int i = 0; i < kMinRuns || seconds_since(t0) < budget_s; ++i) {
    cpus.pin_next();
    reset_peak_rss();
    DesRun run = run_des(cfg);
    sample("peak_rss_mb", peak_rss_mb());
    if (i == 0) first = run;
    check_des_run(first, run, i);
    sample("mpps", static_cast<double>(run.res.nf_segs) / run.wall_s / 1e6,
           run.res.nf_segs);
  }
}

std::string metric_safe(std::string name) {
  std::replace(name.begin(), name.end(), ':', '-');
  return name;
}

/// The simulated outputs and per-layer breakdown of one scenario result
/// (deterministic per seed, so one sample each).
void des_result_samples(const exp::ScenarioResult& r,
                        const exp::ScenarioResult& traced, const DesSetup& s) {
  sample("des.sim.elephant_gbps", elephant_gbps(r, s), r.messages);
  const util::Histogram mice = mouse_latency(r, s);
  for (double q : {50.0, 75.0, 90.0, 95.0, 98.0, 99.0})
    std::printf("mouse_latency_us %g %.17g %llu\n", q,
                static_cast<double>(mice.quantile(q / 100.0)) / 1000.0,
                static_cast<unsigned long long>(mice.count()));
  const double sim_ms = sim::to_seconds(s.warmup + s.measure) * 1e3;
  sample("des.events_per_sim_ms", static_cast<double>(r.events) / sim_ms,
         r.events);

  // Simulated busy fraction per receive-path tag, summed over the receiver
  // cores (irq, udp_rx, app and sender never run on this TCP receiver).
  for (sim::Tag tag :
       {sim::Tag::kDriver, sim::Tag::kSkbAlloc, sim::Tag::kGro,
        sim::Tag::kSteer, sim::Tag::kVxlan, sim::Tag::kBridge,
        sim::Tag::kVeth, sim::Tag::kIpRx, sim::Tag::kTcpRx, sim::Tag::kNf,
        sim::Tag::kMerge, sim::Tag::kCopy, sim::Tag::kOther}) {
    double busy = 0.0;
    for (const auto& c : r.cores) busy += c.by_tag[static_cast<std::size_t>(tag)];
    sample("des.busy." + std::string(sim::tag_name(tag)), busy,
           r.cores.size());
  }
  sample("des.max_core_util", r.max_core_utilization(), r.cores.size());

  // Per-phase simulated latency of traced packets (trace/attribution.hpp).
  // split_queue and socket_wait never occur on this path: IRQ splitting is
  // off and TCP runs in the reader (tcp_in_reader), whose wait shows as
  // reasm_hold and reader_proc.
  const auto& phases = traced.phases.phases;
  for (const char* phase :
       {"ring_wait", "queue", "reasm_hold", "reader_proc", "copy",
        "svc:driver", "svc:gro", "svc:ip_outer", "svc:vxlan", "svc:ip",
        "svc:nf"}) {
    const auto it = phases.find(phase);
    const util::Histogram empty{6};
    const util::Histogram& hist = it == phases.end() ? empty : it->second;
    const std::string base = "des.phase." + metric_safe(phase);
    sample(base + ".p50_us", static_cast<double>(hist.quantile(0.50)) / 1000.0,
           hist.count());
    sample(base + ".p99_us", static_cast<double>(hist.quantile(0.99)) / 1000.0,
           hist.count());
  }

  sample("des.flowcache.hit_frac", r.cache_hit_rate(),
         r.cache_hits + r.cache_misses);
  sample("des.reasm.ooo_arrivals", static_cast<double>(r.ooo_arrivals));
  sample("des.reasm.batches_merged", static_cast<double>(r.batches_merged));
  sample("des.control.rescales", static_cast<double>(r.control.rescales));
  sample("des.nf.lock_contended", static_cast<double>(r.nf_lock_contended));
  sample("des.nic.drops", static_cast<double>(r.nic_drops));
  sample("nf.flows", static_cast<double>(r.nf_flows_live));
  sample("control.flowtable.peak", static_cast<double>(r.control.peak));
  sample("control.flowtable.expired", static_cast<double>(r.control.expired));
}

/// Traced DES measurement: pairs of one untraced and one traced run, both
/// pinned to the same CPU (the pairs rotate over the CPUs, and alternate
/// which run goes first), until the budget is spent.
void des_per_layer(CpuRotation& cpus, std::uint64_t seed, double budget_s) {
  const DesSetup s;
  const exp::ScenarioConfig plain_cfg = des_mixed_builder(s, seed).build();
  exp::ScenarioConfig traced_cfg = plain_cfg;
  traced_cfg.trace.enabled = true;
  traced_cfg.trace.sample_period = 4;
  const double sim_ms = sim::to_seconds(s.warmup + s.measure) * 1e3;

  DesRun first, first_traced;
  const auto t0 = Clock::now();
  for (int i = 0; i < 2 || seconds_since(t0) < budget_s; ++i) {
    cpus.pin_next();
    DesRun plain, traced;
    if (i % 2 == 0) {
      plain = run_des(plain_cfg);
      traced = run_des(traced_cfg);
    } else {
      traced = run_des(traced_cfg);
      plain = run_des(plain_cfg);
    }
    if (i == 0) {
      first = plain;
      first_traced = traced;
    }
    check_des_run(first, plain, 2 * i);
    check_des_run(first, traced, 2 * i + 1);
    sample("des.sim_speed", sim_ms / plain.wall_s);
    sample("des.wall_ns_per_event",
           plain.wall_s * 1e9 / static_cast<double>(plain.res.events),
           plain.res.events);
    sample("des.trace_overhead_frac", traced.wall_s / plain.wall_s - 1.0);
  }
  des_result_samples(first.res, first_traced.res, s);
}

// --- layer replays ---------------------------------------------------------------------

/// The workload's inner flows, as the replays see them.
struct ReplayInputs {
  std::vector<net::FlowKey> keys;
  bool tcp = false;
  control::FlowTableParams table;  // the workload's flow-table shape
};

ReplayInputs replay_inputs(std::string_view workload) {
  ReplayInputs in;
  const auto udp_key = [](std::uint64_t flow_id) {
    return net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                        static_cast<std::uint16_t>(40000 + (flow_id & 0x3FFF)),
                        5000, net::Ipv4Header::kProtoUdp};
  };
  if (workload == "rt-overlay-scr") {
    // Flow ids 1..64, the SCR replica table shape (one shard per worker).
    for (std::uint64_t f = 0; f < kOverlayFlows; ++f)
      in.keys.push_back(udp_key(f));
    in.table = {1, kNfStateCapacity, 1024};
  } else if (workload == "rt-churn-lock") {
    // One key per churned flow until the shared NF table is full.
    for (std::uint64_t f = 1; f <= kNfStateCapacity; ++f)
      in.keys.push_back(udp_key(f));
    in.table = {8, kNfStateCapacity, 1024};
  } else {
    // The 20 TCP flows of the DES scenario into the receiver's container.
    in.tcp = true;
    for (std::uint16_t f = 0; f < 20; ++f)
      in.keys.push_back(net::FlowKey{
          net::Ipv4Addr(10, 0, 0, 2), net::Ipv4Addr(10, 0, 1, 2),
          static_cast<std::uint16_t>(30000 + f), 5001,
          net::Ipv4Header::kProtoTcp});
    // The control plane's flow-monitor table (default shape); the
    // replay gives it a TTL so the expiry sweep has work.
    in.table = control::FlowTableParams{};
    in.table.ttl = 1024;
  }
  return in;
}

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Collects timed rounds of one replay into samples of at least 1 ms each,
/// reported in ns per operation.
class Timing {
 public:
  explicit Timing(std::string metric) : metric_(std::move(metric)) {}
  ~Timing() { flush(); }
  Timing(const Timing&) = delete;
  Timing& operator=(const Timing&) = delete;

  void add(double ns, std::uint64_t ops) {
    ns_ += ns;
    ops_ += ops;
    if (ns_ >= 1e6) flush();
  }
  std::uint64_t samples() const { return samples_; }

 private:
  void flush() {
    if (ops_ == 0) return;
    sample(metric_, ns_ / static_cast<double>(ops_), ops_);
    ++samples_;
    ns_ = 0.0;
    ops_ = 0;
  }
  std::string metric_;
  double ns_ = 0.0;
  std::uint64_t ops_ = 0;
  std::uint64_t samples_ = 0;
};

/// Times `round()` repeatedly (each call performs `ops` operations and
/// returns the ns it measured) until `budget_s` is spent.
template <typename Round>
void replay(const std::string& metric, double budget_s, std::uint64_t ops,
            Round&& round) {
  Timing timing(metric);
  const auto t0 = Clock::now();
  while (timing.samples() < 5 || seconds_since(t0) < budget_s)
    timing.add(round(), ops);
}

/// Single-threaded replays of the layer functions the workloads call,
/// each on the workload's own flows and table shapes.
void replay_layers(std::string_view workload, double budget_s) {
  const ReplayInputs in = replay_inputs(workload);
  const double each = budget_s / 10.0;
  const std::uint32_t vni = 42;
  const net::Ipv4Addr outer_src(192, 168, 1, 2), outer_dst(192, 168, 1, 3);
  const std::size_t nkeys = in.keys.size();
  // Frames in flight: one pooled slab per key, at least one chunk's worth.
  const std::size_t nframes = std::max<std::size_t>(nkeys, 256);
  constexpr std::size_t kChunk = 128;
  rt::PacketPool pool({.slabs = nframes + kChunk});
  std::vector<net::PacketPtr> frames(nframes);
  const auto build = [&](std::size_t i) {
    const net::FlowKey& key = in.keys[i % nkeys];
    net::PacketPtr skb =
        in.tcp ? net::make_tcp_segment(std::move(frames[i]), key, i,
                                       net::kTcpMss)
               : net::make_udp_datagram(std::move(frames[i]), key,
                                        net::kTcpMss);
    net::vxlan_encap(*skb, outer_src, outer_dst, vni);
    skb->flow_id = i % nkeys + 1;
    frames[i] = std::move(skb);
  };
  for (std::size_t i = 0; i < nframes; ++i) frames[i] = pool.acquire();

  replay("net.build_encap_ns", each, nframes, [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < nframes; ++i) build(i);
    return ns_since(t0);
  });

  // Decap replays: strip the outer stack from every frame, then restore it
  // (untimed) — pull() only moves the head, so push() re-exposes the same
  // validated outer bytes.
  const auto restore = [&] {
    for (auto& f : frames) {
      if (f->encapsulated) continue;
      f->buf.push(net::kVxlanOverhead);
      f->encapsulated = true;
    }
  };
  bool decap_ok = true;
  replay("net.splice_decap_ns", each, nframes, [&] {
    const auto t0 = Clock::now();
    for (auto& f : frames) decap_ok &= net::vxlan_splice_decap(*f, vni);
    const double ns = ns_since(t0);
    restore();
    return ns;
  });
  replay("net.full_decap_ns", each, nframes, [&] {
    const auto t0 = Clock::now();
    for (auto& f : frames) decap_ok &= net::vxlan_decap(*f).ok;
    const double ns = ns_since(t0);
    restore();
    return ns;
  });
  check("replay.decap_ok", decap_ok, "a replayed frame failed to decapsulate");

  // NF replays on the decapsulated inner frames.
  for (auto& f : frames) net::vxlan_decap(*f);
  const nf::ChainConfig chain = nat_fw_lb();
  const nf::MaglevTable maglev = nf::MaglevTable::build(
      chain.lb_backends, chain.lb_table_size, chain.lb_seed);
  std::vector<nf::PacketView> views;
  std::vector<std::uint16_t> ports;
  for (const auto& f : frames) {
    views.push_back(nf::view_of(*f));
    ports.push_back(nf::nat_port_for(chain, f->flow));
  }
  bool nat_ok = true;
  replay("nf.nat_rewrite_ns", each, nframes, [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < nframes; ++i)
      nat_ok &= nf::nat_rewrite(chain, *frames[i], ports[i]);
    return ns_since(t0);
  });
  check("replay.nat_ok", nat_ok, "a replayed frame failed its NAT rewrite");
  std::vector<nf::FlowState> states(nkeys);
  replay("nf.apply_ns", each, nframes, [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < nframes; ++i)
      for (nf::Kind k : chain.chain)
        nf::apply(chain, &maglev, k, views[i], states[i % nkeys]);
    return ns_since(t0);
  });

  // Flow table: the workload's table shape under its churn pattern —
  // insert every key, touch every key, then expire them all.
  struct Stat {
    std::uint64_t n = 0;
  };
  std::int64_t clock = 0;
  std::uint64_t base_id = 1;
  control::FlowTable<Stat> table(in.table);
  const std::uint64_t nt =
      std::min<std::uint64_t>(nkeys, table.capacity() / 2 + 1);
  std::uint64_t inserted = 0, expired = 0;
  {
    Timing up("control.flowtable.upsert_ns");
    Timing touch("control.flowtable.touch_ns");
    Timing expire("control.flowtable.expire_idle_ns");
    const auto t_ft = Clock::now();
    while (up.samples() < 5 || seconds_since(t_ft) < 3 * each) {
      auto t0 = Clock::now();
      for (std::uint64_t k = 0; k < nt; ++k)
        table.upsert(base_id + k, static_cast<sim::Time>(clock)).n += 1;
      up.add(ns_since(t0), nt);
      ++clock;
      t0 = Clock::now();
      for (std::uint64_t k = 0; k < nt; ++k)
        table.touch(base_id + k, static_cast<sim::Time>(clock));
      touch.add(ns_since(t0), nt);
      clock += std::max<sim::Time>(in.table.ttl, 1);
      t0 = Clock::now();
      const std::size_t gone = table.expire_idle(static_cast<sim::Time>(clock));
      expire.add(ns_since(t0), gone);
      inserted += nt;
      expired += gone;
      base_id += nt;
    }
  }
  check("replay.flowtable_expired_all", expired == inserted,
        std::to_string(expired) + " of " + std::to_string(inserted) +
            " entries expired");

  frames.clear();  // back to the pool before the pool replay
  std::vector<net::PacketPtr> held(kChunk);
  replay("rt.pool.cycle_ns", each, kChunk, [&] {
    const auto t0 = Clock::now();
    for (auto& h : held) h = pool.acquire();
    for (auto& h : held) h.reset();
    return ns_since(t0);
  });

  rt::SpscRing<rt::RtPacket> ring(1024);
  std::vector<rt::RtPacket> src(kBatchSize), dst(kBatchSize);
  bool ring_ok = true;
  replay("rt.spsc.batch_cycle_ns", each, kBatchSize, [&] {
    const auto t0 = Clock::now();
    const std::size_t pushed = ring.try_push_batch(src.data(), src.size());
    const std::size_t popped = ring.try_pop_batch(dst.data(), dst.size());
    const double ns = ns_since(t0);
    ring_ok &= pushed == src.size() && popped == pushed;
    return ns;
  });
  check("replay.spsc_ok", ring_ok, "a ring batch was not pushed and popped whole");
}

std::string arg_value(int argc, char** argv, std::string_view name) {
  const std::string prefix = "--" + std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.substr(0, prefix.size()) == prefix)
      return std::string(a.substr(prefix.size()));
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = arg_value(argc, argv, "workload");
  const std::string seed_s = arg_value(argc, argv, "seed");
  const std::string seconds_s = arg_value(argc, argv, "seconds");
  const std::string trace_s = arg_value(argc, argv, "trace");
  if (workload.empty() || seed_s.empty() || seconds_s.empty() ||
      (trace_s != "0" && trace_s != "1")) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1\n");
    return 2;
  }
  const std::uint64_t seed = std::strtoull(seed_s.c_str(), nullptr, 10);
  const double seconds = std::strtod(seconds_s.c_str(), nullptr);
  const bool trace = trace_s == "1";
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  CpuRotation cpus;
  if (workload == "rt-overlay-scr" || workload == "rt-churn-lock") {
    const bool overlay = workload == "rt-overlay-scr";
    const ConfigFn make_config =
        overlay ? overlay_scr_config : churn_lock_config;
    // Churn runs carry enough flows (one per 8 batches of 64) to overflow
    // the 16384-entry shared NF table, so eviction is part of every run.
    const std::uint64_t per_run = overlay ? (1u << 21) : 10'000'000;
    if (!trace) {
      rt_end_to_end(cpus, make_config, seed, per_run, seconds);
    } else {
      rt_per_layer(make_config(seed), per_run, seconds * 0.6);
      replay_layers(workload, seconds * 0.4);
    }
  } else if (workload == "des-mixed") {
    if (!trace) {
      des_end_to_end(cpus, seed, seconds);
    } else {
      des_per_layer(cpus, seed, seconds * 0.6);
      replay_layers(workload, seconds * 0.4);
    }
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  return 0;
}
