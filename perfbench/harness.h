// Step-by-step point runner for the repository benchmark.
//
// Drives the library the way workloads::run_point does, but times every
// call into a layer from the outside: nvm::Pool and ptm::Runtime
// construction, Runtime::recover, Workload::setup, Memory::reset_models,
// Memory::prewarm_directory, sim::Engine::run, Workload::verify and both
// destructors. A traced point also wraps each worker's context in a
// TracedContext, which splits the run window into engine self time and
// everything else without touching the engine itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "ptm/tx.h"
#include "sim/context.h"
#include "stats/counters.h"
#include "stats/json_writer.h"
#include "workloads/driver.h"

namespace perfbench {

/// Outside-in engine accounting. All fibers share one OS thread, so
/// between the most recent advance() entry by any fiber and the next
/// advance() exit only engine code runs: the inline clock bump, or a
/// yield, the scheduler's pick and the resume of another fiber. Summing
/// those intervals gives the engine's self time; an exit on a different
/// worker than the most recent entry is one fiber switch. A fiber's first
/// resume counts as an exit and its return as an entry, so a switch into
/// a fresh fiber or out of a finished one is charged to the engine too.
class SwitchTrace {
 public:
  using Clock = std::chrono::steady_clock;

  /// Call immediately before sim::Engine::run.
  void begin_run() {
    last_ = Clock::now();
    last_worker_ = -1;
  }

  /// advance() entry (is_advance) or the end of a fiber's body.
  void enter(int worker, bool is_advance) {
    if (is_advance) advances_++;
    last_worker_ = worker;
    last_ = Clock::now();
  }

  /// advance() exit or the start of a fiber's body.
  void exit(int worker) {
    const Clock::time_point t = Clock::now();
    self_ += t - last_;
    if (last_worker_ >= 0 && worker != last_worker_) switches_++;
    last_worker_ = worker;
  }

  /// Call immediately after sim::Engine::run returns.
  void end_run() { self_ += Clock::now() - last_; }

  uint64_t advances() const { return advances_; }
  uint64_t switches() const { return switches_; }
  uint64_t self_ns() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(self_).count());
  }

 private:
  Clock::time_point last_{};
  Clock::duration self_{};
  int last_worker_ = -1;
  uint64_t advances_ = 0;
  uint64_t switches_ = 0;
};

/// Forwarding context that reports every advance() to a SwitchTrace. It
/// charges no simulated time of its own, so a traced run must produce the
/// same simulated counters as an untraced one.
class TracedContext final : public sim::ExecContext {
 public:
  TracedContext(sim::ExecContext& inner, SwitchTrace& trace)
      : inner_(inner), trace_(trace) {}

  uint64_t now_ns() const override { return inner_.now_ns(); }
  void advance(uint64_t ns) override {
    trace_.enter(inner_.worker_id(), true);
    inner_.advance(ns);
    trace_.exit(inner_.worker_id());
  }
  int worker_id() const override { return inner_.worker_id(); }
  int num_workers() const override { return inner_.num_workers(); }
  bool is_simulated() const override { return inner_.is_simulated(); }

 private:
  sim::ExecContext& inner_;
  SwitchTrace& trace_;
};

/// One benchmark point: a workload on one system configuration.
struct PointSpec {
  std::string label;
  workloads::WorkloadFactory factory;
  nvm::SystemConfig sys;
  ptm::Algo algo = ptm::Algo::kOrecLazy;
  int threads = 1;
  uint64_t ops_per_thread = 1;
};

/// Host time of each timed call, in nanoseconds.
struct PhaseTimes {
  uint64_t pool_construct = 0;
  uint64_t runtime_construct = 0;
  uint64_t recover = 0;
  uint64_t populate = 0;
  uint64_t reset_models = 0;
  uint64_t prewarm = 0;
  uint64_t run = 0;
  uint64_t verify = 0;
  uint64_t runtime_teardown = 0;
  uint64_t pool_teardown = 0;
};

struct PointResult {
  std::string label;
  PhaseTimes host;
  uint64_t sim_ns = 0;
  stats::TxCounters totals;  // workers only; verify() runs after the snapshot
  uint64_t channel_requests = 0;
  uint64_t heap_high_water_bytes = 0;

  // Correctness accounting. An op counts as attempted once per worker op
  // plus once each for the startup recover() and the final verify().
  uint64_t ops_attempted = 0;
  uint64_t ops_failed = 0;
  bool recovery_clean = false;  // no discarded records, no CRC mismatches
  uint64_t log_range_drops = 0;
  std::string first_error;

  bool traced = false;
  SwitchTrace trace;
};

/// Run one point end to end on a fresh pool. Exceptions from recover(),
/// a worker op or verify() are counted as failed ops, not propagated.
PointResult run_point(const PointSpec& spec, uint64_t seed, bool traced);

/// Append the point's fields to the JSON object open on `w`.
void write_point_fields(stats::JsonWriter& w, const PointResult& r);

}  // namespace perfbench
