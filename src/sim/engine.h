// Discrete-event execution engine.
//
// Motivation: the paper's evaluation runs 1..32 threads on a 16-core Xeon
// with Optane DC DIMMs. This reproduction runs on a host with a single CPU
// core and no persistent memory, so wall-clock multithreading cannot
// reproduce scalability curves. Instead, every benchmark worker runs as a
// cooperatively-scheduled fiber whose *simulated* clock advances by
// modelled costs (memory latencies, queueing delays, compute), and the
// scheduler guarantees that the fiber with the minimum simulated time is
// the only one executing. The result is a deterministic, contention-
// faithful interleaving in simulated time: STM conflicts, lock-hold
// windows, WPQ saturation and bandwidth queueing all emerge exactly as
// they would from the relative timing of operations on the paper's
// machine.
//
// Implementation: fibers on one OS thread, switched by a user-space
// x86-64 routine that saves only the callee-saved registers, MXCSR and the
// x87 control word, and makes no syscall (glibc's swapcontext, which this
// replaced, also saved the signal mask with an rt_sigprocmask syscall and
// cost 313-771 ns per switch). A running fiber is handed a `run_until`
// budget equal to the next-smallest worker clock, so consecutive events of
// the same worker stay on the fast path. When a fiber overruns its budget
// (or finishes) it runs the scheduler's pick itself and switches straight
// into the chosen fiber: there is no scheduler context, and control goes
// back to run() only once every worker is done. Each fiber stack has a
// PROT_NONE guard page below it, so an overflow faults instead of
// corrupting the neighbouring memory. x86-64 SysV only.
//
// Rules for code running under the engine:
//  * never block on OS primitives (mutexes/condvars) waiting for another
//    *worker* — only one fiber runs at a time, so the holder could never
//    be scheduled; uncontended locks released before the next advance()
//    are fine;
//  * every spin/backoff loop must charge time via ExecContext::advance(),
//    otherwise the single running fiber livelocks;
//  * catch handlers must never yield, so must not call advance(): the
//    Itanium EH caught-exception stack is per OS thread, not per fiber,
//    and a switch does not save it (see ptm/runtime.h).
// The PTM is written to these rules (atomics + abort/backoff, no blocking).
#pragma once

#if !defined(__x86_64__)
#error "sim::Engine's fiber switch is written for x86-64 (SysV ABI) only"
#endif

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "sim/context.h"

namespace sim {

class Engine;

/// ExecContext bound to one engine worker fiber.
class SimContext final : public ExecContext {
 public:
  uint64_t now_ns() const override { return time_ns_; }

  void advance(uint64_t ns) override {
    time_ns_ += ns;
    if (time_ns_ > run_until_) yield();
  }

  int worker_id() const override { return id_; }
  int num_workers() const override;
  bool is_simulated() const override { return true; }

 private:
  friend class Engine;

  void yield();

  Engine* engine_ = nullptr;
  int id_ = 0;
  uint64_t time_ns_ = 0;
  // The worker may keep running (no scheduler pick) while its clock does
  // not exceed this bound — the next-smallest worker clock.
  uint64_t run_until_ = 0;
};

/// Runs N logical workers under min-clock scheduling. One Engine per
/// benchmark point; construction is cheap relative to a run.
class Engine {
 public:
  /// Usable stack bytes per worker fiber (a guard page sits below).
  static constexpr size_t kStackBytes = 512 * 1024;

  explicit Engine(int num_workers);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Execute `body(ctx)` on every worker to completion. `body` is invoked
  /// with a distinct SimContext per worker. May be called repeatedly; each
  /// call restarts simulated time at zero. If any worker throws, the
  /// remaining workers still run to completion (or failure) and the first
  /// exception is rethrown here.
  void run(const std::function<void(ExecContext&)>& body);

  /// Simulated duration of the last run() — the max worker finish time.
  uint64_t elapsed_ns() const { return elapsed_ns_; }

  int num_workers() const { return n_; }

 private:
  friend class SimContext;

  /// One mapping holding every fiber's stack, each above a PROT_NONE page.
  class Stacks {
   public:
    explicit Stacks(int count);
    ~Stacks();
    Stacks(const Stacks&) = delete;
    Stacks& operator=(const Stacks&) = delete;

    /// Lowest usable address of fiber `i`'s stack; it grows down from
    /// base(i) + kStackBytes.
    char* base(int i) const;

   private:
    char* map_ = nullptr;
    size_t map_bytes_ = 0;
  };

  // First code a fresh fiber runs (entered from the assembly thunk).
  [[noreturn]] static void fiber_main(Engine* engine, int id);

  // On fiber `id`, once its clock passed its budget or it finished, or on
  // run() (id -1) to start: pick the next worker and switch to it (or
  // return, if that is `id` again).
  void schedule_from(int id);

  // Pick the non-done worker with minimum time (lowest id breaks ties) and
  // the second-smallest time as its run budget.
  int pick_next(uint64_t* run_until) const;

  // Save the current context as `from` and resume `to`; -1 names run()'s
  // context. Returns when something switches back to `from`.
  void switch_to(int from, int to);

  // Sanitizer bookkeeping on the resumed side of a switch.
  void finish_switch(void* fake_stack);

  const int n_;
  uint64_t elapsed_ns_ = 0;

  const std::function<void(ExecContext&)>* body_ = nullptr;
  std::vector<SimContext> ctx_;
  std::vector<bool> done_;
  Stacks stacks_;
  std::vector<void*> sp_;  // saved stack pointer of each suspended fiber
  void* run_sp_ = nullptr;  // saved stack pointer of run()
  std::exception_ptr first_error_;

  // AddressSanitizer fiber annotations only: run()'s stack bounds and the
  // context the last switch left.
  const void* run_stack_bottom_ = nullptr;
  size_t run_stack_size_ = 0;
  int switched_from_ = -1;
};

}  // namespace sim
