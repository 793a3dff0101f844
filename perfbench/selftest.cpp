// Self-test of the outside-in engine accounting (harness.h SwitchTrace /
// TracedContext) on synthetic sim::Engine runs whose schedule is known.
// Exits 0 when every check holds; perfbench/test_perfbench.py runs it.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "harness.h"
#include "sim/engine.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    failures++;
  }
}

struct Observed {
  perfbench::SwitchTrace trace;
  uint64_t run_ns = 0;
  uint64_t worker_changes = 0;  // ground truth from inside the fibers
};

// Runs `workers` fibers under a TracedContext, exactly as harness.cpp
// does. Worker 0 advances 10 ns `iters` times; every other worker first
// advances 5 ns and then 10 ns `iters` times, so clocks never tie after
// the start and the fibers strictly alternate.
Observed run_ping_pong(int workers, uint64_t iters) {
  Observed o;
  int last = -1;
  auto note = [&](int id) {
    if (last >= 0 && id != last) o.worker_changes++;
    last = id;
  };
  sim::Engine engine(workers);
  auto body = [&](sim::ExecContext& sim_ctx) {
    perfbench::TracedContext ctx(sim_ctx, o.trace);
    o.trace.exit(ctx.worker_id());
    note(ctx.worker_id());
    if (ctx.worker_id() != 0) {
      ctx.advance(5);
      note(ctx.worker_id());
    }
    for (uint64_t i = 0; i < iters; i++) {
      ctx.advance(10);
      note(ctx.worker_id());
    }
    o.trace.enter(ctx.worker_id(), false);
  };
  o.trace.begin_run();
  const auto t0 = std::chrono::steady_clock::now();
  engine.run(body);
  o.run_ns = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count());
  o.trace.end_run();
  return o;
}

}  // namespace

int main() {
  constexpr uint64_t kIters = 1000;

  // Two fibers: K+1 run segments each, alternating, so 2K+1 switches.
  const Observed two = run_ping_pong(2, kIters);
  check(two.trace.switches() == 2 * kIters + 1, "ping-pong switch count is 2K+1");
  check(two.trace.switches() == two.worker_changes, "switches match in-fiber ground truth");
  check(two.trace.advances() == 2 * kIters + 1, "every advance() is counted once");
  check(two.trace.self_ns() > 0, "engine self time is positive");
  check(two.trace.self_ns() <= two.run_ns, "engine self time <= run time");

  // One fiber never yields: no switches, the KV workload's bypass case.
  const Observed one = run_ping_pong(1, kIters);
  check(one.trace.switches() == 0, "single fiber makes no switches");
  check(one.trace.advances() == kIters, "single fiber advance count");
  check(one.trace.self_ns() <= one.run_ns, "single fiber self time <= run time");

  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
