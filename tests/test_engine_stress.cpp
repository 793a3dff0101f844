// Engine edge cases: exception propagation out of fibers, fairness of the
// min-clock schedule, run_until fast-path correctness, heavy reuse, and the
// per-fiber state a switch must keep (floating-point control, exception
// handling, unwinding, stack bounds).
#include <execinfo.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cfenv>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"

namespace {

TEST(EngineStress, WorkerExceptionIsRethrownAfterAllFinish) {
  sim::Engine e(4);
  std::vector<int> finished(4, 0);
  EXPECT_THROW(
      e.run([&](sim::ExecContext& ctx) {
        ctx.advance(10);
        if (ctx.worker_id() == 2) throw std::runtime_error("boom");
        ctx.advance(10);
        finished[static_cast<size_t>(ctx.worker_id())] = 1;
      }),
      std::runtime_error);
  // The other three workers ran to completion despite worker 2's failure.
  EXPECT_EQ(finished[0] + finished[1] + finished[3], 3);
}

TEST(EngineStress, FirstOfMultipleExceptionsWins) {
  sim::Engine e(3);
  try {
    e.run([&](sim::ExecContext& ctx) {
      // Worker 0 has the smallest clock when it throws, so its exception
      // fires first deterministically.
      ctx.advance(static_cast<uint64_t>(ctx.worker_id() + 1));
      throw std::runtime_error(std::to_string(ctx.worker_id()));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(), "0");
  }
}

TEST(EngineStress, EngineUsableAfterException) {
  sim::Engine e(2);
  EXPECT_THROW(e.run([&](sim::ExecContext&) { throw 42; }), int);
  int ran = 0;
  e.run([&](sim::ExecContext& ctx) {
    ctx.advance(5);
    ran++;
  });
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.elapsed_ns(), 5u);
}

TEST(EngineStress, ScheduleIsFairUnderEqualCosts) {
  // With identical per-step costs, every worker must make equal progress
  // at every prefix of the schedule (round-robin through tie-breaking).
  sim::Engine e(8);
  std::vector<int> steps(8, 0);
  std::vector<int> order;
  e.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < 100; i++) {
      order.push_back(ctx.worker_id());
      steps[static_cast<size_t>(ctx.worker_id())]++;
      ctx.advance(10);
    }
  });
  for (int s : steps) EXPECT_EQ(s, 100);
  // In any window of 8 consecutive events, max progress spread is 1 step.
  std::vector<int> seen(8, 0);
  for (size_t i = 0; i < order.size(); i++) {
    seen[static_cast<size_t>(order[i])]++;
    const auto [mn, mx] = std::minmax_element(seen.begin(), seen.end());
    EXPECT_LE(*mx - *mn, 1) << "at event " << i;
  }
}

TEST(EngineStress, RunUntilFastPathMatchesSlowSchedule) {
  // A worker with many tiny advances between larger ones must produce the
  // same final clocks as the pure event-by-event schedule would: total
  // time is just the sum of its advances, and elapsed is the max.
  sim::Engine e(3);
  e.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < 1000; i++) {
      ctx.advance(ctx.worker_id() == 0 ? 1 : 3);
    }
  });
  EXPECT_EQ(e.elapsed_ns(), 3000u);
}

TEST(EngineStress, LargeWorkerCount) {
  sim::Engine e(64);
  std::atomic<int> done{0};
  e.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < 20; i++) ctx.advance(1 + static_cast<uint64_t>(ctx.worker_id() % 5));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(EngineStress, DeepStackUsageInFiber) {
  // Fibers get 512KB stacks; make sure a realistic recursion depth works.
  sim::Engine e(2);
  std::function<uint64_t(uint64_t, sim::ExecContext&)> rec =
      [&](uint64_t n, sim::ExecContext& ctx) -> uint64_t {
    char pad[512];
    pad[0] = static_cast<char>(n);
    if (n == 0) return static_cast<uint64_t>(pad[0]);
    ctx.advance(1);
    return rec(n - 1, ctx) + 1;
  };
  e.run([&](sim::ExecContext& ctx) { EXPECT_EQ(rec(400, ctx), 400u); });
}

TEST(EngineStress, RoundingModeIsPerFiber) {
  // A switch restores each fiber's MXCSR and x87 control word, so a
  // rounding mode set on one fiber never leaks into another or into run().
  sim::Engine e(2);
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest = one / three;
  std::vector<int> seen_mode(4, -1);
  std::vector<double> seen_quotient(4, 0.0);
  e.run([&](sim::ExecContext& ctx) {
    const int id = ctx.worker_id();
    // Worker 0 runs first (tie on clock 0 goes to the lowest id).
    seen_mode[static_cast<size_t>(id)] = fegetround();
    seen_quotient[static_cast<size_t>(id)] = one / three;
    fesetround(id == 0 ? FE_UPWARD : FE_DOWNWARD);
    ctx.advance(10);  // yields to the other worker
    seen_mode[static_cast<size_t>(2 + id)] = fegetround();
    seen_quotient[static_cast<size_t>(2 + id)] = one / three;
    // Both finish with their own mode still set.
  });
  EXPECT_EQ(seen_mode[0], FE_TONEAREST);
  EXPECT_EQ(seen_mode[1], FE_TONEAREST);  // worker 0's FE_UPWARD did not leak
  EXPECT_EQ(seen_mode[2], FE_UPWARD);     // nor worker 1's FE_DOWNWARD
  EXPECT_EQ(seen_mode[3], FE_DOWNWARD);
  EXPECT_EQ(seen_quotient[0], nearest);
  EXPECT_EQ(seen_quotient[1], nearest);
  EXPECT_GT(seen_quotient[2], nearest);
  EXPECT_LT(seen_quotient[3], seen_quotient[2]);
  EXPECT_EQ(fegetround(), FE_TONEAREST);  // run() got its own mode back
  fesetround(FE_TONEAREST);
}

template <int N>
struct FiberError {
  int round;
};

// Throws FiberError<N> out of a try body that yields first, and catches
// exactly that type. The handler only records: it never yields.
template <int N>
int throw_and_catch_own(sim::ExecContext& ctx, int rounds) {
  int caught = 0;
  for (int r = 0; r < rounds; r++) {
    try {
      ctx.advance(static_cast<uint64_t>(1 + N));
      ctx.advance(3);
      throw FiberError<N>{r};
    } catch (const FiberError<N>& ex) {
      if (ex.round == r) caught++;
    } catch (...) {
      ADD_FAILURE() << "worker " << N << " caught another fiber's exception";
    }
    ctx.advance(2);
  }
  return caught;
}

TEST(EngineStress, EachFiberCatchesItsOwnException) {
  constexpr int kRounds = 50;
  sim::Engine e(4);
  std::vector<int> caught(4, 0);
  e.run([&](sim::ExecContext& ctx) {
    const int id = ctx.worker_id();
    int n = 0;
    switch (id) {
      case 0: n = throw_and_catch_own<0>(ctx, kRounds); break;
      case 1: n = throw_and_catch_own<1>(ctx, kRounds); break;
      case 2: n = throw_and_catch_own<2>(ctx, kRounds); break;
      default: n = throw_and_catch_own<3>(ctx, kRounds); break;
    }
    caught[static_cast<size_t>(id)] = n;
  });
  for (int n : caught) EXPECT_EQ(n, kRounds);
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

// The volatile read after the call keeps one frame per level on the stack.
[[gnu::noinline]] size_t nested_backtrace(size_t levels, void** frames, int cap, int* depth) {
  volatile size_t level = levels;
  if (levels == 0) {
    *depth = backtrace(frames, cap);
    return 0;
  }
  return nested_backtrace(levels - 1, frames, cap, depth) + level;
}

TEST(EngineStress, BacktraceInFiberStopsAtFiberBoundary) {
  // Unwinding a fiber stack must end at the fiber's entry instead of
  // walking into whatever lies above it (rsan's abort path prints one).
  constexpr int kCap = 256;
  sim::Engine e(2);
  std::vector<int> shallow(2, 0);
  std::vector<int> deep(2, 0);
  e.run([&](sim::ExecContext& ctx) {
    std::vector<void*> frames(kCap);
    const auto id = static_cast<size_t>(ctx.worker_id());
    ctx.advance(1);
    nested_backtrace(0, frames.data(), kCap, &shallow[id]);
    ctx.advance(1);
    nested_backtrace(20, frames.data(), kCap, &deep[id]);
  });
  for (size_t id = 0; id < 2; id++) {
    EXPECT_GT(shallow[id], 0);
    EXPECT_LT(shallow[id], 32);
    EXPECT_GE(deep[id], shallow[id] + 20);
    EXPECT_LT(deep[id], kCap);
  }
}

// Recurses until `n` reaches 0, one 1 KiB frame per level.
[[gnu::noinline]] size_t burn_stack(size_t n) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(n);
  if (n == 0) return 0;
  return burn_stack(n - 1) + static_cast<size_t>(pad[0]);
}

const char* g_fiber_entry_frame = nullptr;

// Runs on an alternate stack: the fiber's own is exhausted.
void report_overflow(int, siginfo_t* si, void*) {
  // The fault must land in the page just below the fiber's usable stack,
  // i.e. the overflow wrote nothing beyond it.
  const auto below = static_cast<size_t>(g_fiber_entry_frame - static_cast<char*>(si->si_addr));
  const bool at_guard = below > sim::Engine::kStackBytes - 16 * 1024 &&
                        below <= sim::Engine::kStackBytes + 16 * 1024;
  const char* msg = at_guard ? "fiber stack overflow hit its guard page\n"
                             : "fiber stack overflow faulted away from its guard page\n";
  if (write(2, msg, std::strlen(msg)) < 0) _exit(5);
  _exit(at_guard ? 3 : 4);
}

void overflow_a_fiber() {
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = report_overflow;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);
  sim::Engine e(2);
  e.run([&](sim::ExecContext& ctx) {
    ctx.advance(1);
    if (ctx.worker_id() != 0) return;
    g_fiber_entry_frame = static_cast<const char*>(__builtin_frame_address(0));
    burn_stack(SIZE_MAX);
  });
}

TEST(EngineStressDeathTest, FiberStackOverflowHitsGuardPage) {
  EXPECT_EXIT(overflow_a_fiber(), testing::ExitedWithCode(3), "hit its guard page");
}

}  // namespace
