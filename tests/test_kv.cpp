// Unit tests for the memcached-like key/value store (workloads/kv).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "test_common.h"
#include "util/rng.h"
#include "workloads/kv.h"

namespace {

struct KvFixture : ::testing::Test {
  KvFixture() {
    workloads::KvParams p;
    p.items = 64;
    store = std::make_unique<workloads::KvStore>(p);
    auto cfg = test::small_cfg(nvm::Domain::kEadr);
    cfg.pool_size = store->pool_bytes();
    pool = std::make_unique<nvm::Pool>(cfg);
    rt = std::make_unique<ptm::Runtime>(*pool, ptm::Algo::kOrecLazy);
    store->setup(*rt, ctx);
  }
  std::unique_ptr<workloads::KvStore> store;
  std::unique_ptr<nvm::Pool> pool;
  std::unique_ptr<ptm::Runtime> rt;
  sim::RealContext ctx{0, 8};
};

TEST_F(KvFixture, PopulationIsComplete) {
  // verify() walks the index looking for every populated key.
  EXPECT_NO_THROW(store->verify(*rt, ctx));
}

TEST_F(KvFixture, VirtualPayloadAccountingMatchesItems) {
  // 64 items x 1KB values = 64 * 16 lines of virtual footprint.
  EXPECT_EQ(store->virtual_lines_used(), 64u * 16u);
}

TEST_F(KvFixture, OverwriteDoesNotGrowFootprint) {
  const uint64_t before = store->virtual_lines_used();
  const uint64_t hw_before = rt->allocator().high_water_bytes();
  for (uint64_t k = 0; k < 64; k++) {
    store->request(*rt, ctx, k, /*is_get=*/false);  // overwrite every key
  }
  EXPECT_EQ(store->virtual_lines_used(), before);
  EXPECT_EQ(rt->allocator().high_water_bytes(), hw_before);
  EXPECT_NO_THROW(store->verify(*rt, ctx));
}

TEST_F(KvFixture, GetsCountPmemTraffic) {
  rt->reset_counters();
  for (uint64_t k = 0; k < 32; k++) {
    store->request(*rt, ctx, k, /*is_get=*/true);
  }
  const auto t = stats::aggregate(rt->snapshot_counters());
  EXPECT_EQ(t.commits, 32u);
  // Each get streams 16 value lines plus index reads.
  EXPECT_GE(t.pmem_loads, 32u * 16u);
}

TEST_F(KvFixture, MissingKeyGetIsHarmless) {
  rt->reset_counters();
  store->request(*rt, ctx, 9999, /*is_get=*/true);  // never populated
  EXPECT_EQ(stats::aggregate(rt->snapshot_counters()).commits, 1u);
  EXPECT_NO_THROW(store->verify(*rt, ctx));
}

TEST(KvCollisions, ManyItemsFewBucketsStillCorrect) {
  // Force long chains: items >> buckets cannot happen through KvParams
  // (buckets scale with items), so instead verify integrity at a size
  // where the 128-byte-key compare path handles many same-bucket entries.
  workloads::KvParams p;
  p.items = 500;  // buckets = 512 -> frequent 2-3 deep chains
  workloads::KvStore store(p);
  auto cfg = test::small_cfg(nvm::Domain::kEadr);
  cfg.pool_size = store.pool_bytes();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 8);
  store.setup(rt, ctx);
  EXPECT_NO_THROW(store.verify(rt, ctx));
}

}  // namespace

namespace {

// key_of/hash_of render and hash keys in place; the oracle is the string
// construction they replaced and util::fnv1a over all 128 bytes.
util::Key128 oracle_key(uint64_t k) {
  std::string s = "memaslap-key-" + util::padded_key(k, 20);
  s.resize(120, 'x');
  return util::Key128(s);
}

void expect_same_key(uint64_t k) {
  const util::Key128 want = oracle_key(k);
  const util::Key128 got = workloads::KvStore::key_of(k);
  ASSERT_EQ(std::memcmp(got.data, want.data, sizeof(want.data)), 0) << "k=" << k;
  ASSERT_EQ(workloads::KvStore::hash_of(got), util::fnv1a(want.data, sizeof(want.data)))
      << "k=" << k;
}

TEST(KvKeys, EdgeKeysMatchStringConstruction) {
  for (uint64_t k : {0ull, 1ull, 9ull, 10ull, 655359ull, 9999999ull, 10000000ull,
                     10000000000000000000ull, 1ull << 63, ~0ull}) {
    expect_same_key(k);
  }
}

TEST(KvKeys, RandomKeysMatchStringConstruction) {
  util::Rng rng(0x6b76ull);
  for (int i = 0; i < 100000; i++) {
    // Mix full-width ids with short ones so every digit count is covered.
    const uint64_t r = rng.next();
    expect_same_key(i % 2 ? r : r % (1ull << (r % 64)));
  }
}

}  // namespace
