// Edge cases of logging and recovery that the randomized crash sweeps
// might not hit deterministically.
#include <gtest/gtest.h>

#include "ptm/redo_log.h"
#include "ptm/runtime.h"
#include "ptm/undo_log.h"
#include "test_common.h"
#include "util/crc32.h"

namespace {

struct Root {
  uint64_t cells[256];
};

TEST(LogEntryPacking, RoundTripsOffsetsAndTags) {
  const uint64_t off = (1ull << 31) + 4096 + 8;  // near the 32-bit limit
  for (uint64_t epoch : {0ull, 1ull, 255ull, (1ull << 24) - 1, 123456789ull}) {
    const uint64_t packed = ptm::LogEntry::pack(epoch, off);
    EXPECT_EQ(ptm::LogEntry::offset_of(packed), off);
    EXPECT_TRUE(ptm::LogEntry::tag_matches(packed, epoch));
    EXPECT_FALSE(ptm::LogEntry::tag_matches(packed, epoch + 1));
  }
}

TEST(LogEntryPacking, SealPreservesOffsetAndTagAndDetectsDamage) {
  const uint64_t off = 4096 + 64;
  const uint64_t val = 0xdeadbeefcafef00dull;
  const uint64_t packed = ptm::LogEntry::pack(77, off);
  const uint64_t sealed = ptm::LogEntry::seal(packed, val);
  // The crc occupies its own field: offset and tag are untouched.
  EXPECT_EQ(ptm::LogEntry::offset_of(sealed), off);
  EXPECT_TRUE(ptm::LogEntry::tag_matches(sealed, 77));
  EXPECT_TRUE(ptm::LogEntry::crc_ok(sealed, val));
  // Any single-word tear (wrong value, or stale off word) fails the check.
  EXPECT_FALSE(ptm::LogEntry::crc_ok(sealed, val + 1));
  EXPECT_FALSE(ptm::LogEntry::crc_ok(ptm::LogEntry::seal(packed, val + 1), val));
  // Resealing after a value change yields a fresh valid seal (the stale
  // crc bits must not leak into the new one).
  const uint64_t resealed = ptm::LogEntry::seal(sealed, val + 1);
  EXPECT_TRUE(ptm::LogEntry::crc_ok(resealed, val + 1));
}

TEST(AllocLogPacking, SealRoundTripsAndDetectsDamage) {
  const uint64_t w = ptm::AllocLogOp::make(123456, ptm::AllocLogOp::kFree, 42);
  const uint64_t sealed = ptm::AllocLogOp::seal(w);
  EXPECT_EQ(ptm::AllocLogOp::off_of(sealed), 123456u);
  EXPECT_EQ(ptm::AllocLogOp::op_of(sealed), ptm::AllocLogOp::kFree);
  EXPECT_TRUE(ptm::AllocLogOp::tag_matches(sealed, 42));
  EXPECT_TRUE(ptm::AllocLogOp::crc_ok(sealed));
  EXPECT_FALSE(ptm::AllocLogOp::crc_ok(sealed ^ 0x8));  // flipped offset bit
}

TEST(AllocLogPacking, PreservesOpAndOffset) {
  const uint64_t off = 123456;  // 8-aligned
  const uint64_t w = ptm::AllocLogOp::make(off, ptm::AllocLogOp::kFree, 42);
  EXPECT_EQ(ptm::AllocLogOp::off_of(w), off);
  EXPECT_EQ(ptm::AllocLogOp::op_of(w), ptm::AllocLogOp::kFree);
  EXPECT_TRUE(ptm::AllocLogOp::tag_matches(w, 42));
  EXPECT_FALSE(ptm::AllocLogOp::tag_matches(w, 41));
}

TEST(WriteIndex, LookupInsertAndEpochClear) {
  ptm::WriteIndex idx;
  EXPECT_EQ(idx.lookup(64), -1);
  idx.insert(64, 5);
  idx.insert(128, 6);
  EXPECT_EQ(idx.lookup(64), 5);
  EXPECT_EQ(idx.lookup(128), 6);
  idx.insert(64, 9);  // overwrite
  EXPECT_EQ(idx.lookup(64), 9);
  idx.clear();
  EXPECT_EQ(idx.lookup(64), -1);
  EXPECT_EQ(idx.lookup(128), -1);
}

TEST(WriteIndex, ManyEntriesNoFalseHits) {
  ptm::WriteIndex idx;
  for (uint64_t i = 0; i < 2000; i++) idx.insert(i * 8, static_cast<int64_t>(i));
  for (uint64_t i = 0; i < 2000; i++) {
    ASSERT_EQ(idx.lookup(i * 8), static_cast<int64_t>(i));
  }
  for (uint64_t i = 2000; i < 2100; i++) {
    ASSERT_EQ(idx.lookup(i * 8), -1);
  }
}

TEST(WriteIndex, PhysicalTableStartsSmall) {
  ptm::WriteIndex idx;
  EXPECT_EQ(idx.table_slots(), ptm::WriteIndex::kInitialSlots);
  EXPECT_LE(idx.table_slots(), 256u);
  EXPECT_EQ(idx.max_writes(), 8192u);
}

TEST(WriteIndex, EntriesSurviveInPlaceGrowth) {
  ptm::WriteIndex idx;
  constexpr uint64_t kN = 5000;
  for (uint64_t i = 0; i < kN; i++) {
    ASSERT_TRUE(idx.insert(i * 8, static_cast<int64_t>(i)));
  }
  // The table followed the write set and kept it at most half full.
  EXPECT_GE(idx.table_slots(), 2 * kN);
  for (uint64_t i = 0; i < kN; i++) {
    ASSERT_EQ(idx.lookup(i * 8), static_cast<int64_t>(i));
  }
  EXPECT_EQ(idx.lookup(kN * 8), -1);
}

TEST(WriteIndex, OverwriteHitsTheSameEntryAcrossGrowth) {
  ptm::WriteIndex idx;
  ASSERT_TRUE(idx.insert(8, 1));
  for (uint64_t i = 2; i < 1000; i++) ASSERT_TRUE(idx.insert(i * 8, static_cast<int64_t>(i)));
  ASSERT_GT(idx.table_slots(), ptm::WriteIndex::kInitialSlots);
  // An update of a live key never counts against the limit or adds a slot.
  ASSERT_TRUE(idx.insert(8, 77));
  EXPECT_EQ(idx.lookup(8), 77);
  for (uint64_t i = 2; i < 1000; i++) ASSERT_EQ(idx.lookup(i * 8), static_cast<int64_t>(i));
}

TEST(WriteIndex, EmptyAndClearedIndexMisses) {
  ptm::WriteIndex idx;
  EXPECT_EQ(idx.lookup(0), -1);
  EXPECT_EQ(idx.lookup(4096), -1);
  for (uint64_t i = 0; i < 600; i++) ASSERT_TRUE(idx.insert(i * 8, static_cast<int64_t>(i)));
  idx.clear();
  for (uint64_t i = 0; i < 600; i++) ASSERT_EQ(idx.lookup(i * 8), -1);
  // Reused after clear(): a fresh key lands and old keys stay gone.
  ASSERT_TRUE(idx.insert(16, 3));
  EXPECT_EQ(idx.lookup(16), 3);
  EXPECT_EQ(idx.lookup(8), -1);
}

TEST(WriteIndex, LogicalLimitIsUnchangedByPhysicalGrowth) {
  // Capacity aborts fire at exactly 8192 new keys, and grow() doubles the
  // limit: the physical table size never shows through.
  ptm::WriteIndex idx;
  for (uint64_t i = 0; i < 8192; i++) {
    ASSERT_TRUE(idx.insert(i * 8, static_cast<int64_t>(i))) << i;
  }
  EXPECT_FALSE(idx.insert(8192 * 8, 8192));
  EXPECT_TRUE(idx.insert(0, 5));  // updating a live key still succeeds
  ASSERT_TRUE(idx.grow());
  EXPECT_EQ(idx.max_writes(), 16384u);
  EXPECT_EQ(idx.lookup(0), -1);  // grow() discards the contents
  for (uint64_t i = 0; i < 16384; i++) {
    ASSERT_TRUE(idx.insert(i * 8, static_cast<int64_t>(i))) << i;
  }
  EXPECT_FALSE(idx.insert(16384 * 8, 16384));
  for (uint64_t i = 0; i < 16384; i++) ASSERT_EQ(idx.lookup(i * 8), static_cast<int64_t>(i));
}

TEST(WriteIndex, GrowStopsAtTheCeiling) {
  // 8192 writes doubles to kMaxSlots / 2 = 2^21 writes in 8 steps; the
  // ninth grow() fails, as it did when the table itself doubled.
  ptm::WriteIndex idx;
  int grows = 0;
  while (idx.grow()) grows++;
  EXPECT_EQ(grows, 8);
  EXPECT_EQ(idx.max_writes(), ptm::WriteIndex::kMaxSlots / 2);
  // Growing the limit allocates nothing.
  EXPECT_EQ(idx.table_slots(), ptm::WriteIndex::kInitialSlots);
}

TEST(DirtyLines, DedupsInFirstInsertionOrder) {
  ptm::DirtyLines d;
  constexpr uint64_t kA = 7, kB = 3, kC = 11;
  for (uint64_t line : {kA, kA, kB, kA, kC, kB, kC}) d.add(line);
  EXPECT_EQ(d.lines(), (std::vector<uint64_t>{kA, kB, kC}));
  EXPECT_EQ(d.count(), 3u);
  d.clear();
  EXPECT_TRUE(d.lines().empty());
  d.add(kC);
  EXPECT_EQ(d.lines(), (std::vector<uint64_t>{kC}));
}

TEST(LogOverflow, WriteLogGrowsAndCommits) {
  // A write set far beyond the in-slot log no longer kills the transaction:
  // each overflow takes a capacity abort, links a fresh log segment, and
  // retries (tests/test_overflow.cpp covers this path in depth).
  auto cfg = test::small_cfg(nvm::Domain::kEadr);
  cfg.per_worker_meta_bytes = 1 << 13;  // tiny: ~380 base log entries
  test::Fixture fx(cfg);
  auto* root = fx.pool.root<Root>();
  // Mid-heap region: the overflow segments bump-allocate from the heap
  // start, and the write set must not overlap its own log.
  auto* heap = reinterpret_cast<uint64_t*>(fx.pool.heap_base() + fx.pool.heap_bytes() / 2);
  fx.rt.run(fx.ctx, [&](ptm::Tx& tx) {
    // Distinct words beyond base log capacity.
    for (uint64_t i = 0; i < 4096; i++) {
      tx.write(&heap[i * 8], i);
    }
    (void)root;
  });
  for (uint64_t i = 0; i < 4096; i++) {
    ASSERT_EQ(heap[i * 8], i);
  }
  const auto totals = stats::aggregate(fx.rt.snapshot_counters());
  EXPECT_GT(totals.aborts_of(stats::AbortCause::kCapacity), 0u);
  EXPECT_GT(totals.log_growths, 0u);
  EXPECT_EQ(totals.commits, 1u);
}

TEST(Recovery, NoOpOnCleanPool) {
  test::Fixture fx(test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, true));
  auto* root = fx.pool.root<Root>();
  fx.rt.run(fx.ctx, [&](ptm::Tx& tx) { tx.write(&root->cells[0], uint64_t{7}); });
  fx.rt.recover(fx.ctx);
  fx.rt.recover(fx.ctx);  // idempotent, repeatable
  EXPECT_EQ(root->cells[0], 7u);
  // Still usable afterwards.
  fx.rt.run(fx.ctx, [&](ptm::Tx& tx) { tx.write(&root->cells[1], uint64_t{8}); });
  EXPECT_EQ(root->cells[1], 8u);
}

TEST(Recovery, StaleLogEntriesAreSkipped) {
  // Hand-craft the partial-persistence hazard: a slot header that claims a
  // committed redo log whose entries carry a stale epoch tag. Recovery
  // must not replay them.
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, true);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 8);
  auto* root = pool.root<Root>();
  root->cells[3] = 111;

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(2), pool.worker_meta_bytes());
  const uint64_t header_epoch = 9;
  slot.header->status = ptm::TxSlotHeader::make(header_epoch, ptm::TxSlotHeader::kCommitted);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecLazy);
  slot.header->log_count = 1;
  // The entry is from epoch 7 — a leftover the crash surfaced. (Sealed:
  // staleness must be decided by the tag, not by an incidental crc fail.)
  slot.log[0].val = 999;
  slot.log[0].off =
      ptm::LogEntry::seal(ptm::LogEntry::pack(7, pool.offset_of(&root->cells[3])), 999);

  const auto rep = rt.recover(ctx);
  EXPECT_EQ(root->cells[3], 111u) << "stale-epoch record was replayed";
  EXPECT_GE(rep.records_stale, 1u);
  EXPECT_EQ(rep.records_replayed, 0u);
}

TEST(Recovery, MatchingEpochCommittedLogIsReplayed) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, true);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 8);
  auto* root = pool.root<Root>();
  root->cells[4] = 111;

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(2), pool.worker_meta_bytes());
  slot.header->status = ptm::TxSlotHeader::make(9, ptm::TxSlotHeader::kCommitted);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecLazy);
  slot.header->log_count = 1;
  slot.log[0].val = 999;
  slot.log[0].off =
      ptm::LogEntry::seal(ptm::LogEntry::pack(9, pool.offset_of(&root->cells[4])), 999);
  // The committer also seals a whole-log checksum into the header.
  slot.header->pad[ptm::SlotLayout::kLogCrcPad] =
      util::crc32c_u64(slot.log[0].val, util::crc32c_u64(slot.log[0].off, 0));

  const auto rep = rt.recover(ctx);
  EXPECT_EQ(root->cells[4], 999u) << "committed redo log was not replayed";
  EXPECT_EQ(rep.records_replayed, 1u);
  EXPECT_EQ(rep.log_crc_mismatches, 0u);
  EXPECT_EQ(rep.records_discarded(), 0u);
}

TEST(Recovery, ActiveUndoLogRollsBackInReverse) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, true);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecEager);
  sim::RealContext ctx(0, 8);
  auto* root = pool.root<Root>();
  root->cells[5] = 333;  // the "torn in-place write"

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(1), pool.worker_meta_bytes());
  slot.header->status = ptm::TxSlotHeader::make(4, ptm::TxSlotHeader::kActive);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecEager);
  slot.header->log_count = 2;
  // Two records for the same word: replay in reverse must end on the
  // OLDER value (log[0]).
  slot.log[0].val = 100;
  slot.log[0].off =
      ptm::LogEntry::seal(ptm::LogEntry::pack(4, pool.offset_of(&root->cells[5])), 100);
  slot.log[1].val = 200;
  slot.log[1].off =
      ptm::LogEntry::seal(ptm::LogEntry::pack(4, pool.offset_of(&root->cells[5])), 200);

  const auto rep = rt.recover(ctx);
  EXPECT_EQ(root->cells[5], 100u);
  EXPECT_EQ(rep.records_replayed, 2u);
  EXPECT_EQ(rep.slots_rolled_back, 1u);
}

TEST(Recovery, EpochAdvancesAfterRecovery) {
  // Transactions after recovery must tag logs with a fresh epoch so their
  // records cannot be confused with pre-crash ones.
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, true);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 8);
  auto* root = pool.root<Root>();

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes());
  const uint64_t before = ptm::TxSlotHeader::epoch_of(slot.header->status);
  rt.recover(ctx);
  const uint64_t after = ptm::TxSlotHeader::epoch_of(slot.header->status);
  EXPECT_GT(after, before);

  // And the first post-recovery transaction must work normally.
  rt.run(ctx, [&](ptm::Tx& tx) { tx.write(&root->cells[0], uint64_t{1}); });
  EXPECT_EQ(root->cells[0], 1u);
}

}  // namespace
