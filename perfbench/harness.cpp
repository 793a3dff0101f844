#include "harness.h"

#include <exception>
#include <memory>
#include <stdexcept>

#include "nvm/pool.h"
#include "ptm/runtime.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ns_since(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

std::string error_text(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "non-std exception";
  }
}

// Times `f()` into `*ns`; an escaping exception becomes one failed op.
template <typename F>
void timed_op(uint64_t* ns, PointResult* r, F&& f) {
  const Clock::time_point t0 = Clock::now();
  r->ops_attempted++;
  try {
    f();
  } catch (...) {
    r->ops_failed++;
    if (r->first_error.empty()) r->first_error = error_text(std::current_exception());
  }
  *ns = ns_since(t0);
}

}  // namespace

PointResult run_point(const PointSpec& spec, uint64_t seed, bool traced) {
  PointResult r;
  r.label = spec.label;
  r.traced = traced;

  // Outlives the pool, as in workloads::run_point.
  std::unique_ptr<workloads::Workload> w = spec.factory();
  nvm::SystemConfig cfg = spec.sys;
  cfg.pool_size = w->pool_bytes();
  cfg.max_workers = spec.threads + 1;  // workers + one setup slot

  Clock::time_point t0 = Clock::now();
  auto pool = std::make_unique<nvm::Pool>(cfg);
  r.host.pool_construct = ns_since(t0);

  t0 = Clock::now();
  auto rt = std::make_unique<ptm::Runtime>(*pool, spec.algo);
  r.host.runtime_construct = ns_since(t0);

  sim::RealContext setup_ctx(spec.threads, spec.threads + 1);
  stats::RecoveryReport recovery;
  timed_op(&r.host.recover, &r, [&] { recovery = rt->recover(setup_ctx); });
  r.recovery_clean =
      recovery.records_discarded() == 0 && recovery.log_crc_mismatches == 0;

  t0 = Clock::now();
  w->setup(*rt, setup_ctx);
  r.host.populate = ns_since(t0);

  t0 = Clock::now();
  rt->reset_counters();
  pool->mem().reset_models();
  r.host.reset_models = ns_since(t0);

  // Warm steady state exactly as workloads::run_point does.
  t0 = Clock::now();
  const uint64_t used_bytes = pool->header()->heap_off + rt->allocator().high_water_bytes();
  pool->mem().prewarm_directory(0, used_bytes / nvm::Memory::kLineBytes);
  if (const uint64_t vlines = w->virtual_lines_used(); vlines > 0) {
    pool->mem().prewarm_directory(pool->mem().virtual_line_base(), vlines);
  }
  r.host.prewarm = ns_since(t0);

  uint64_t failed_ops = 0;
  std::string op_error;
  sim::Engine engine(spec.threads);
  auto body = [&](sim::ExecContext& sim_ctx) {
    TracedContext traced_ctx(sim_ctx, r.trace);
    sim::ExecContext& ctx = traced ? static_cast<sim::ExecContext&>(traced_ctx) : sim_ctx;
    if (traced) r.trace.exit(ctx.worker_id());
    util::Rng rng(seed ^ (0x5bd1e995u * static_cast<uint64_t>(ctx.worker_id() + 1)));
    for (uint64_t i = 0; i < spec.ops_per_thread; i++) {
      // The handler only records: catch handlers must never yield to the
      // engine (ptm::Runtime::run explains why).
      try {
        w->op(*rt, ctx, rng);
      } catch (...) {
        failed_ops++;
        if (op_error.empty()) op_error = error_text(std::current_exception());
      }
    }
    if (traced) r.trace.enter(ctx.worker_id(), false);
  };
  if (traced) r.trace.begin_run();
  t0 = Clock::now();
  engine.run(body);
  r.host.run = ns_since(t0);
  if (traced) r.trace.end_run();
  r.ops_attempted += static_cast<uint64_t>(spec.threads) * spec.ops_per_thread;
  r.ops_failed += failed_ops;
  if (r.first_error.empty()) r.first_error = op_error;

  r.sim_ns = engine.elapsed_ns();
  r.totals = stats::aggregate(rt->snapshot_counters());
  r.channel_requests = pool->mem().channel_requests();
  r.log_range_drops = pool->mem().log_range_drops();
  r.heap_high_water_bytes = rt->allocator().high_water_bytes();

  timed_op(&r.host.verify, &r, [&] { w->verify(*rt, setup_ctx); });

  t0 = Clock::now();
  rt.reset();
  r.host.runtime_teardown = ns_since(t0);

  t0 = Clock::now();
  pool.reset();
  r.host.pool_teardown = ns_since(t0);
  return r;
}

void write_point_fields(stats::JsonWriter& w, const PointResult& r) {
  const stats::TxCounters& c = r.totals;
  w.kv("label", r.label);

  w.key("host_ns").begin_object();
  w.kv("pool_construct", r.host.pool_construct);
  w.kv("runtime_construct", r.host.runtime_construct);
  w.kv("recover", r.host.recover);
  w.kv("populate", r.host.populate);
  w.kv("reset_models", r.host.reset_models);
  w.kv("prewarm", r.host.prewarm);
  w.kv("run", r.host.run);
  w.kv("verify", r.host.verify);
  w.kv("runtime_teardown", r.host.runtime_teardown);
  w.kv("pool_teardown", r.host.pool_teardown);
  w.end_object();

  // Simulated counters: a function of (config, seed, ops) alone, so a
  // traced and an untraced run must agree on every one of them.
  w.key("sim").begin_object();
  w.kv("sim_ns", r.sim_ns);
  w.kv("commits", c.commits);
  w.kv("aborts", c.aborts);
  for (size_t i = 0; i < stats::kNumAbortCauses; i++) {
    w.kv(std::string("aborts_") + stats::abort_cause_name(static_cast<stats::AbortCause>(i)),
         c.aborts_by_cause[i]);
  }
  w.kv("reads", c.reads);
  w.kv("writes", c.writes);
  w.kv("clwbs", c.clwbs);
  w.kv("sfences", c.sfences);
  w.kv("log_bytes", c.log_bytes);
  w.kv("pmem_loads", c.pmem_loads);
  w.kv("pmem_stores", c.pmem_stores);
  w.kv("dram_cache_hits", c.dram_cache_hits);
  w.kv("dram_cache_misses", c.dram_cache_misses);
  w.kv("l3_hits", c.l3_hits);
  w.kv("l3_misses", c.l3_misses);
  w.kv("wpq_stall_ns", c.wpq_stall_ns);
  w.kv("fence_wait_ns", c.fence_wait_ns);
  w.kv("channel_requests", r.channel_requests);
  w.kv("heap_high_water_bytes", r.heap_high_water_bytes);
  w.end_object();

  w.key("checks").begin_object();
  w.kv("ops_attempted", r.ops_attempted);
  w.kv("ops_failed", r.ops_failed);
  w.kv("recovery_clean", r.recovery_clean);
  w.kv("log_range_drops", r.log_range_drops);
  w.kv("first_error", r.first_error);
  w.end_object();

  if (r.traced) {
    w.key("trace").begin_object();
    w.kv("advances", r.trace.advances());
    w.kv("switches", r.trace.switches());
    w.kv("self_ns", r.trace.self_ns());
    w.end_object();
  }
}

}  // namespace perfbench
