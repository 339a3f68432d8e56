#include "rt/engine.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "rt/stages.hpp"
#include "rt/topology.hpp"

namespace mflow::rt {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t)
          .count());
}

/// The runner loop every pipeline thread runs over its stage, and the only
/// place the rt engine waits. A blocked step yields and is retried; a
/// blocked output or pool gives up after `max_spins` retries without
/// progress (0: never) and sheds what it could not move. Input is waited
/// for without limit. With profiling on, a stall episode runs from the
/// first blocked step to the next step with another outcome and is charged
/// by its outcome; the clock is read only at those two points.
template <class Stage>
void run_stage(Stage& stage, std::uint32_t max_spins) {
  StageCounters* const prof = stage.profile();
  const Clock::time_point start = Clock::now();
  Clock::time_point since;         // start of the open stall episode
  Step stalled = Step::kProgress;  // its outcome; kProgress when none
  std::uint32_t spins = 0;
  const auto settle = [&] {
    if (prof != nullptr && stalled != Step::kProgress) {
      const std::uint64_t ns = ns_since(since);
      if (stalled == Step::kInputDry) {
        ++prof->input_dry_episodes;
        prof->input_dry_ns += ns;
      } else if (stalled == Step::kOutputFull) {
        ++prof->output_full_episodes;
        prof->output_full_ns += ns;
      } else {
        ++prof->pool_dry_episodes;
        prof->pool_dry_ns += ns;
      }
    }
    stalled = Step::kProgress;
    spins = 0;
  };
  for (;;) {
    stage.observe();
    const Step s = stage.step();
    if (s == Step::kDone) break;
    if (s == Step::kProgress) {
      if (stalled != Step::kProgress) settle();
      continue;
    }
    if (s != stalled) {
      settle();
      stalled = s;
      if (prof != nullptr) since = Clock::now();
    }
    if (s != Step::kInputDry && max_spins != 0 && ++spins >= max_spins) {
      stage.shed();
      settle();
      continue;
    }
    std::this_thread::yield();
  }
  settle();
  if (prof != nullptr) prof->active_ns = ns_since(start);
}

}  // namespace

EngineResult Engine::run(
    std::uint64_t total,
    const std::function<void(const RtPacket&)>& on_output) {
  Pipeline p(config_, total, capacity_, on_output);
  const std::size_t W = config_.workers;

  // Topology-aware core assignment. Worker and merger threads pin
  // themselves on startup; the generator (caller) thread is pinned here and
  // restored before returning.
  const CorePlan plan = config_.topology.pin_threads
                            ? plan_cores(CpuTopology::discover(), W)
                            : CorePlan{-1, -1, std::vector<int>(W, -1)};
  std::atomic<std::uint32_t> pinned{0};
  const auto pin = [&pinned](int cpu) {
    if (cpu < 0 || !pin_current_thread(cpu)) return false;
    pinned.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  const bool generator_pinned = pin(plan.generator);

  const std::uint32_t spins = config_.max_push_spins;
  {
    std::vector<std::jthread> threads;
    threads.reserve(W + 1);
    for (std::size_t w = 0; w < W; ++w)
      threads.emplace_back([&, w] {
        pin(plan.workers[w]);
        run_stage(*p.workers[w], spins);
      });
    threads.emplace_back([&] {
      pin(plan.consumer);
      run_stage(p.merger, spins);
    });
    run_stage(p.generator, spins);
  }  // joins every thread
  const auto t1 = Clock::now();
  if (generator_pinned) unpin_current_thread();

  EngineResult res = p.result();
  res.wall_seconds = std::chrono::duration<double>(t1 - p.ctx.t0).count();
  if (res.profile.enabled) res.profile.wall_seconds = res.wall_seconds;
  res.threads_pinned = pinned.load(std::memory_order_acquire);
  return res;
}

}  // namespace mflow::rt
