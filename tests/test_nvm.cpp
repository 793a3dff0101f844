#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "nvm/cache_model.h"
#include "nvm/channel.h"
#include "nvm/dram_cache.h"
#include "nvm/pool.h"
#include "nvm/wpq.h"
#include "sim/engine.h"
#include "test_common.h"

// ---------------------------------------------------------------- channel

TEST(Channel, NoWaitWhenIdle) {
  nvm::BandwidthChannel ch;
  auto g = ch.request(1000, 20);
  EXPECT_EQ(g.wait_ns, 0u);
  EXPECT_EQ(g.done_ns, 1020u);
}

TEST(Channel, BackToBackRequestsQueue) {
  nvm::BandwidthChannel ch;
  ch.request(0, 20);
  auto g = ch.request(0, 20);
  EXPECT_EQ(g.wait_ns, 20u);
  EXPECT_EQ(g.done_ns, 40u);
  EXPECT_EQ(ch.backlog_ns(0), 40u);
}

TEST(Channel, IdleGapDrainsBacklog) {
  nvm::BandwidthChannel ch;
  ch.request(0, 20);
  auto g = ch.request(100, 20);
  EXPECT_EQ(g.wait_ns, 0u);
  EXPECT_EQ(ch.backlog_ns(100), 20u);
}

// ---------------------------------------------------------------- wpq

TEST(Wpq, SfenceWaitsForWorkerDrain) {
  nvm::BandwidthChannel ch;
  nvm::Wpq wpq(64, 4);
  const uint64_t done = wpq.enqueue(1, 0, ch, 27.0, 94.0);
  EXPECT_EQ(done, 94u);  // latency floor dominates when idle
  EXPECT_EQ(wpq.worker_drain_ns(1), 94u);
  EXPECT_EQ(wpq.worker_drain_ns(0), 0u);
}

TEST(Wpq, FullQueueForcesStall) {
  nvm::BandwidthChannel ch;
  nvm::Wpq wpq(4, 1);
  for (int i = 0; i < 4; i++) wpq.enqueue(0, 0, ch, 27.0, 94.0);
  // All 4 in flight at t=0: the oldest completes at 94.
  EXPECT_GE(wpq.stall_until_ns(0), 94u);
  // Once the oldest drains, a slot is free.
  EXPECT_EQ(wpq.stall_until_ns(200), 200u);
}

TEST(Wpq, ThroughputBoundedByServiceTime) {
  nvm::BandwidthChannel ch;
  nvm::Wpq wpq(64, 1);
  uint64_t last = 0;
  for (int i = 0; i < 100; i++) last = wpq.enqueue(0, 0, ch, 27.0, 94.0);
  // 100 lines at 27 ns service each: completion ~ 100*27.
  EXPECT_GE(last, 2700u);
  EXPECT_LE(last, 2800u);
}

// ---------------------------------------------------------------- caches

TEST(CacheModel, HitAfterInstall) {
  nvm::CacheModel l3(64 * 1024, 16);
  EXPECT_FALSE(l3.access(5, false).hit);
  EXPECT_TRUE(l3.access(5, false).hit);
}

TEST(CacheModel, LruEvictionWithinSet) {
  nvm::CacheModel l3(4 * 64, 4);  // one set of 4 ways
  ASSERT_EQ(l3.num_sets(), 1u);
  for (uint64_t i = 0; i < 4; i++) l3.access(i, false);
  l3.access(0, false);            // refresh 0; LRU is now 1
  auto r = l3.access(100, true);  // install: evicts 1 (clean -> no wb)
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.evicted_dirty_line, nvm::CacheModel::kNoLine);
  EXPECT_TRUE(l3.access(0, false).hit);
  EXPECT_FALSE(l3.access(1, false).hit);  // got evicted
}

TEST(CacheModel, DirtyEvictionReportsLine) {
  nvm::CacheModel l3(2 * 64, 2);  // one set, 2 ways
  l3.access(1, true);             // dirty
  l3.access(2, false);
  auto r = l3.access(3, false);  // evicts LRU = line 1 (dirty)
  EXPECT_EQ(r.evicted_dirty_line, 1u);
}

TEST(CacheModel, CleanDropsDirtyBit) {
  nvm::CacheModel l3(2 * 64, 2);
  l3.access(1, true);
  EXPECT_TRUE(l3.clean(1));   // was dirty
  EXPECT_FALSE(l3.clean(1));  // now clean
  EXPECT_FALSE(l3.clean(99));  // absent
}

TEST(DramCache, DirectMappedConflict) {
  nvm::DramCacheDirectory dir(64 * 8);  // 8 slots
  EXPECT_FALSE(dir.access(3, true).hit);
  EXPECT_TRUE(dir.access(3, false).hit);
  // 3 and 11 collide (11 % 8 == 3): dirty victim reported.
  auto r = dir.access(11, false);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.evicted_dirty_line, 3u);
}

TEST(DramCache, LineZeroIsNotEmpty) {
  nvm::DramCacheDirectory dir(64 * 8);
  EXPECT_FALSE(dir.access(0, true).hit);
  EXPECT_TRUE(dir.access(0, false).hit);
  EXPECT_EQ(dir.access(8, false).evicted_dirty_line, 0u);
}

TEST(DramCache, DirtyBitSurvivesCleanRehit) {
  nvm::DramCacheDirectory dir(64 * 8);
  dir.access(5, true);
  EXPECT_TRUE(dir.access(5, false).hit);
  EXPECT_TRUE(dir.access(5, false).hit);
  EXPECT_EQ(dir.access(13, false).evicted_dirty_line, 5u);
}

TEST(DramCache, CleanAndEmptyVictimsReportNoLine) {
  nvm::DramCacheDirectory dir(64 * 8);
  EXPECT_EQ(dir.access(2, false).evicted_dirty_line, nvm::DramCacheDirectory::kNoLine);
  const auto r = dir.access(10, true);  // evicts the clean 2
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.evicted_dirty_line, nvm::DramCacheDirectory::kNoLine);
  dir.reset();
  EXPECT_EQ(dir.access(18, false).evicted_dirty_line, nvm::DramCacheDirectory::kNoLine);
}

TEST(DramCache, VirtualRangeLinesRoundTrip) {
  // Memory numbers virtual payload lines from num_lines + 2^20 upwards.
  const uint64_t virt_base = (32ull << 20) / 64 + (1ull << 20);
  nvm::DramCacheDirectory dir(64 * 8);
  for (const uint64_t line : {virt_base, virt_base + 12345, nvm::DramCacheDirectory::kMaxLine}) {
    dir.reset();
    dir.access(line, true);
    EXPECT_TRUE(dir.access(line, false).hit);
    EXPECT_EQ(dir.access(line - 8, false).evicted_dirty_line, line);  // same slot
  }
}

TEST(DramCacheDeathTest, RejectsLinesBeyondEncoding) {
  nvm::DramCacheDirectory dir(64 * 8);
  EXPECT_DEBUG_DEATH(dir.access(1ull << 63, false), "kMaxLine");
  EXPECT_DEBUG_DEATH(dir.access(nvm::DramCacheDirectory::kMaxLine + 1, true), "kMaxLine");
}

TEST(DramCache, OnlyPdramOverOptaneOwnsSlots) {
  for (const auto domain : {nvm::Domain::kAdr, nvm::Domain::kEadr, nvm::Domain::kPdramLite,
                            nvm::Domain::kPdram}) {
    for (const auto media : {nvm::Media::kOptane, nvm::Media::kDram}) {
      const auto cfg = test::small_cfg(domain, media);
      nvm::Pool pool(cfg);
      const bool pdram_optane =
          domain == nvm::Domain::kPdram && media == nvm::Media::kOptane;
      EXPECT_EQ(pool.mem().dram_directory().num_slots(),
                pdram_optane ? cfg.dram_cache_bytes / 64 : 0u)
          << nvm::domain_name(domain) << " media " << static_cast<int>(media);
    }
  }
}

// ---------------------------------------------------------------- pool

TEST(Pool, LayoutIsSane) {
  auto cfg = test::small_cfg();
  nvm::Pool pool(cfg);
  auto* h = pool.header();
  EXPECT_EQ(h->magic, nvm::Pool::kMagic);
  EXPECT_EQ(h->size, cfg.pool_size);
  EXPECT_GT(h->heap_off, h->meta_off);
  EXPECT_GT(pool.heap_bytes(), 1u << 20);
  // Worker meta slots are disjoint.
  EXPECT_EQ(pool.worker_meta(1) - pool.worker_meta(0),
            static_cast<ptrdiff_t>(cfg.per_worker_meta_bytes));
  EXPECT_TRUE(pool.contains(pool.heap_base()));
  EXPECT_FALSE(pool.contains(&cfg));
}

TEST(Pool, OffsetRoundTrip) {
  nvm::Pool pool(test::small_cfg());
  char* p = pool.heap_base() + 1234;
  EXPECT_EQ(pool.at(pool.offset_of(p)), p);
}

TEST(Pool, RootAreaIsStable) {
  nvm::Pool pool(test::small_cfg());
  struct R {
    uint64_t a, b;
  };
  pool.root<R>()->a = 77;
  EXPECT_EQ(pool.root<R>()->a, 77u);
}

TEST(Pool, NewPoolReadsZeroAfterDirtyPredecessor) {
  const auto cfg = test::small_cfg();
  {
    nvm::Pool dirty(cfg);
    std::memset(dirty.base(), 0xa5, dirty.size());
    EXPECT_EQ(static_cast<unsigned char>(dirty.base()[dirty.size() - 1]), 0xa5);
  }
  nvm::Pool pool(cfg);
  auto all_zero = [](const char* p, size_t n) {
    return std::all_of(p, p + n, [](char c) { return c == 0; });
  };
  const nvm::PoolHeader* h = pool.header();
  EXPECT_EQ(h->magic, nvm::Pool::kMagic);
  EXPECT_TRUE(all_zero(pool.base() + sizeof(nvm::PoolHeader),
                       nvm::Pool::kHeaderBytes - sizeof(nvm::PoolHeader)));
  EXPECT_TRUE(all_zero(pool.root<char>(), nvm::Pool::kRootBytes));
  EXPECT_TRUE(all_zero(pool.worker_meta(0), h->heap_off - h->meta_off));
  for (size_t off = 0; off < pool.heap_bytes(); off += 4096) {
    const char* page = pool.heap_base() + off;
    const size_t len = std::min<size_t>(4096, pool.heap_bytes() - off);
    uint64_t first = 0, last = 0;
    std::memcpy(&first, page, sizeof first);
    std::memcpy(&last, page + len - sizeof last, sizeof last);
    ASSERT_EQ(first, 0u) << "heap offset " << off;
    ASSERT_EQ(last, 0u) << "heap offset " << off;
  }
}

TEST(PoolDeathTest, OverrunPastEndFaults) {
  EXPECT_DEATH(
      {
        nvm::Pool pool(test::small_cfg());
        static_cast<volatile char*>(pool.base())[pool.size()] = 1;
      },
      "");
}

// ------------------------------------------------- memory timing (DES)

namespace {

// Run a single DES worker over `body` and return its simulated duration.
uint64_t timed(nvm::Pool& pool, const std::function<void(sim::ExecContext&)>& body) {
  (void)pool;
  sim::Engine e(1);
  e.run(body);
  return e.elapsed_ns();
}

}  // namespace

TEST(MemoryTiming, OptaneLoadSlowerThanDram) {
  auto mk = [](nvm::Media m) {
    auto cfg = test::small_cfg(nvm::Domain::kEadr, m);
    return cfg;
  };
  uint64_t t_dram, t_optane;
  {
    nvm::Pool pool(mk(nvm::Media::kDram));
    t_dram = timed(pool, [&](sim::ExecContext& ctx) {
      for (int i = 0; i < 1000; i++) {
        // Stride by 64 lines so every access misses the small L3.
        auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + (i * 64 * 67) % (16 << 20));
        pool.mem().load_word(ctx, nullptr, w, nvm::Space::kData);
      }
    });
  }
  {
    nvm::Pool pool(mk(nvm::Media::kOptane));
    t_optane = timed(pool, [&](sim::ExecContext& ctx) {
      for (int i = 0; i < 1000; i++) {
        auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + (i * 64 * 67) % (16 << 20));
        pool.mem().load_word(ctx, nullptr, w, nvm::Space::kData);
      }
    });
  }
  EXPECT_GT(t_optane, t_dram * 2);
}

TEST(MemoryTiming, L3HitsAreCheap) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  const uint64_t t = timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    for (int i = 0; i < 1000; i++) pool.mem().load_word(ctx, &c, w, nvm::Space::kData);
  });
  EXPECT_EQ(c.l3_misses, 1u);
  EXPECT_EQ(c.l3_hits, 999u);
  EXPECT_LT(t, 1000u * 25);  // ~l3_hit_ns each, not optane_load_ns
}

TEST(MemoryTiming, AdrClwbAndFenceCost) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  const uint64_t t = timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    pool.mem().store_word(ctx, &c, w, 1, nvm::Space::kData);
    pool.mem().clwb(ctx, &c, w);
    pool.mem().sfence(ctx, &c);
  });
  EXPECT_EQ(c.clwbs, 1u);
  EXPECT_EQ(c.sfences, 1u);
  // The fence must wait for the ~94ns drain of the clwb'd line.
  EXPECT_GT(t, 94u);
}

TEST(MemoryTiming, EadrElidesFlushes) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  const uint64_t t = timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    pool.mem().store_word(ctx, &c, w, 1, nvm::Space::kData);
    pool.mem().clwb(ctx, &c, w);
    pool.mem().sfence(ctx, &c);
  });
  EXPECT_EQ(c.clwbs, 0u);   // not even counted: the instruction is elided
  EXPECT_EQ(c.sfences, 0u);
  EXPECT_LT(t, 94u + 250u);
}

TEST(MemoryTiming, ElideFencesSkipsDrainButCountsClwb) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane);
  cfg.elide_fences = true;
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    pool.mem().store_word(ctx, &c, w, 1, nvm::Space::kData);
    pool.mem().clwb(ctx, &c, w);
    pool.mem().sfence(ctx, &c);
  });
  EXPECT_EQ(c.clwbs, 1u);
  EXPECT_EQ(c.sfences, 1u);
  EXPECT_EQ(c.fence_wait_ns, 0u);
}

TEST(MemoryTiming, PdramHitsDramLatency) {
  auto cfg = test::small_cfg(nvm::Domain::kPdram, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    // First access: L3 miss + directory miss (fetch from Optane).
    pool.mem().load_word(ctx, &c, w, nvm::Space::kData);
  });
  EXPECT_EQ(c.dram_cache_misses, 1u);
  // Re-run with a line working set larger than L3 (1MB = 16384 lines) but
  // inside the 4MB directory: the second sweep thrashes L3 (sequential LRU
  // scan) yet hits the DRAM cache.
  stats::TxCounters c2;
  timed(pool, [&](sim::ExecContext& ctx) {
    for (int rep = 0; rep < 2; rep++) {
      for (int i = 0; i < 20000; i++) {
        auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + i * 64);
        pool.mem().load_word(ctx, &c2, w, nvm::Space::kData);
      }
    }
  });
  EXPECT_GT(c2.dram_cache_hits, 15000u);
}

TEST(MemoryTiming, TouchLinesModelsVirtualPayloads) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  const uint64_t base = pool.mem().virtual_line_base();
  const uint64_t t = timed(pool, [&](sim::ExecContext& ctx) {
    pool.mem().touch_lines(ctx, &c, base, 16, false, nvm::Space::kData);
  });
  EXPECT_EQ(c.pmem_loads, 16u);
  EXPECT_EQ(c.l3_misses, 16u);
  EXPECT_GT(t, 16u * 200);  // 16 cold Optane line reads
}

// ------------------------------------------------ word-access accounting

namespace {

// Forwards every call to an inner context, like perfbench's TracedContext:
// wrapping must not move an advance() or change what the model counts.
class ForwardingContext final : public sim::ExecContext {
 public:
  explicit ForwardingContext(sim::ExecContext& inner) : inner_(inner) {}
  uint64_t now_ns() const override { return inner_.now_ns(); }
  void advance(uint64_t ns) override { inner_.advance(ns); }
  int worker_id() const override { return inner_.worker_id(); }
  int num_workers() const override { return inner_.num_workers(); }
  bool is_simulated() const override { return inner_.is_simulated(); }

 private:
  sim::ExecContext& inner_;
};

struct MixedRun {
  stats::TxCounters c[2];
  uint64_t clock[2] = {0, 0};
  uint64_t elapsed = 0;
};

// Two workers interleave loads, stores and virtual-line touches over a
// shared set of lines on a fresh pool.
MixedRun run_mixed(bool forwarded) {
  nvm::Pool pool(test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane));
  MixedRun r;
  sim::Engine e(2);
  e.run([&](sim::ExecContext& sim_ctx) {
    ForwardingContext fwd(sim_ctx);
    sim::ExecContext& ctx = forwarded ? static_cast<sim::ExecContext&>(fwd) : sim_ctx;
    const int w = ctx.worker_id();
    stats::TxCounters* c = &r.c[w];
    nvm::Memory& mem = pool.mem();
    for (int i = 0; i < 400; i++) {
      auto* word = reinterpret_cast<uint64_t*>(pool.heap_base() + ((i * 7 + w * 3) % 97) * 64);
      mem.load_word(ctx, c, word, nvm::Space::kData);
      if (i % 3 == w) mem.store_word(ctx, c, word, static_cast<uint64_t>(i), nvm::Space::kData);
      if (i % 16 == 0) {
        mem.touch_lines(ctx, c, mem.virtual_line_base() + static_cast<uint64_t>(i), 4,
                        i % 32 == 0, nvm::Space::kData);
      }
    }
    r.clock[w] = ctx.now_ns();
  });
  r.elapsed = e.elapsed_ns();
  return r;
}

}  // namespace

TEST(WordAccounting, RealContextCountsOnceAndChargesNothing) {
  nvm::Pool pool(test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane));
  sim::RealContext ctx;
  stats::TxCounters c;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, &c, w, 7, nvm::Space::kData);
  EXPECT_EQ(pool.mem().load_word(ctx, &c, w, nvm::Space::kData), 7u);
  EXPECT_EQ(c.pmem_loads, 1u);
  EXPECT_EQ(c.pmem_stores, 1u);
  EXPECT_EQ(c.l3_hits + c.l3_misses, 0u);
  EXPECT_EQ(ctx.now_ns(), 0u);
}

TEST(WordAccounting, ForwardingContextMatchesBareSimContext) {
  const MixedRun bare = run_mixed(false);
  const MixedRun fwd = run_mixed(true);
  for (int w = 0; w < 2; w++) {
    SCOPED_TRACE(w);
    EXPECT_GT(bare.c[w].pmem_loads, 0u);
    EXPECT_GT(bare.c[w].l3_misses, 0u);
    EXPECT_EQ(fwd.c[w].pmem_loads, bare.c[w].pmem_loads);
    EXPECT_EQ(fwd.c[w].pmem_stores, bare.c[w].pmem_stores);
    EXPECT_EQ(fwd.c[w].l3_hits, bare.c[w].l3_hits);
    EXPECT_EQ(fwd.c[w].l3_misses, bare.c[w].l3_misses);
    EXPECT_EQ(fwd.clock[w], bare.clock[w]);
  }
  EXPECT_EQ(fwd.elapsed, bare.elapsed);
}

// --------------------------------------------- crash shadow semantics

TEST(CrashSim, AdrUnflushedStoreIsLost) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.crash_evict_prob = 0.0;  // strict adversary: nothing persists uninvited
  cfg.crash_pending_prob = 0.0;
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 0u);
}

TEST(CrashSim, AdrFencedStoreSurvives) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.crash_evict_prob = 0.0;
  cfg.crash_pending_prob = 0.0;
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  pool.mem().clwb(ctx, nullptr, w);
  pool.mem().sfence(ctx, nullptr);
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 42u);
}

TEST(CrashSim, AdrClwbWithoutFenceMayOrMayNotPersist) {
  for (const double prob : {0.0, 1.0}) {
    auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
    cfg.crash_evict_prob = 0.0;
    cfg.crash_pending_prob = prob;
    nvm::Pool pool(cfg);
    sim::RealContext ctx;
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
    pool.mem().clwb(ctx, nullptr, w);  // no fence
    util::Rng rng(1);
    pool.simulate_power_failure(rng);
    EXPECT_EQ(*w, prob == 1.0 ? 42u : 0u);
  }
}

TEST(CrashSim, EadrEverythingPersists) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane, /*crash_sim=*/true);
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 7, nvm::Space::kData);  // no flush at all
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 7u);
}

TEST(CrashSim, ClwbCapturesContentAtFlushTime) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.crash_evict_prob = 0.0;
  cfg.crash_pending_prob = 0.0;
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 1, nvm::Space::kData);
  pool.mem().clwb(ctx, nullptr, w);
  pool.mem().sfence(ctx, nullptr);
  // Overwrite after the fence, without flushing the new value.
  pool.mem().store_word(ctx, nullptr, w, 2, nvm::Space::kData);
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 1u);  // the fenced value, not the later dirty one
}

TEST(CrashSim, CheckpointMakesStateDurable) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.crash_evict_prob = 0.0;
  cfg.crash_pending_prob = 0.0;
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 9, nvm::Space::kData);
  pool.mem().checkpoint_all_persistent();
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 9u);
}
