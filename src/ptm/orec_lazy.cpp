// orec-lazy: the redo-logging PTM (the paper's best redo-based algorithm,
// from [38]). Writes buffer in the per-thread redo log; home locations are
// only touched at commit, while the write-set orecs are held. Per-
// transaction persistence cost under ADR: one flush+fence batch for the
// log, one for the COMMITTED status, one for the write-back — O(1) fences
// regardless of write-set size, which is why the paper finds redo superior
// to undo for all workloads with non-trivial write sets.
#include <cassert>

#include "analysis/psan.h"
#include "analysis/rsan.h"
#include "ptm/containment.h"
#include "ptm/runtime.h"
#include "ptm/tx.h"
#include "util/crc32.h"

namespace ptm {

uint64_t Tx::lazy_read(const uint64_t* waddr) {
  nvm::Pool& pool = rt_->pool();
  // Read-own-writes: consult the DRAM-side index of the redo log.
  const uint64_t off = pool.offset_of(waddr);
  const int64_t idx = windex_.lookup(off);
  if (idx >= 0) {
    // The log record lives in PMEM; model the (usually L3-hot) access.
    return pool.mem().load_word(*ctx_, c_,
                                &slot_.entry_at(static_cast<size_t>(idx))->val,
                                nvm::Space::kLog);
  }

  std::atomic<uint64_t>& orec = rt_->orecs().for_addr(waddr);
  const uint64_t v1 = orec.load(std::memory_order_acquire);
  if (OrecTable::is_locked(v1)) {
    // Containment: if the owner's lease expired and it is provably gone,
    // reclaim its transaction so the retry can make progress. This attempt
    // still aborts either way — the retry revalidates from scratch.
    if (cm_) cm_->on_locked_orec(OrecTable::owner_of(v1), *ctx_, c_);
    abort_tx(stats::AbortCause::kConflictRead);
  }
  // rsan: a speculative read is invisible to later writers (no HB edge);
  // isolation is discharged by the orec revalidation just below, so the
  // race check is suppressed for this load and replaced by a validated-read
  // edge once v1 == v2 holds.
  analysis::Rsan::ReadScope rsan_read(rsan_, worker_);
  const uint64_t val = pool.mem().load_word(*ctx_, c_, waddr, nvm::Space::kData);
  const uint64_t v2 = orec.load(std::memory_order_acquire);
  if (v1 != v2 || OrecTable::version_of(v1) > start_time_) {
    abort_tx(stats::AbortCause::kConflictRead);
  }
  if (rsan_) rsan_->on_validated_read(worker_, &orec);
  read_set_.emplace_back(&orec, v1);
  return val;
}

void Tx::lazy_write(uint64_t* waddr, uint64_t val) {
  const uint64_t off = rt_->pool().offset_of(waddr);
  const int64_t idx = windex_.lookup(off);
  if (idx >= 0) {
    // Update in place in the log (latest value wins at write-back).
    nvm::Memory& mem = rt_->pool().mem();
    if (slot_.mirrored) {
      LogEntry* m = slot_.mirror_entry_at(static_cast<size_t>(idx));
      mem.store_word(*ctx_, c_, &m->val, val, nvm::Space::kLog);
      if (crc_logs_) {
        mem.store_word(*ctx_, c_, &m->off, LogEntry::seal(m->off, val), nvm::Space::kLog);
      }
    }
    LogEntry* e = slot_.entry_at(static_cast<size_t>(idx));
    mem.store_word(*ctx_, c_, &e->val, val, nvm::Space::kLog);
    if (crc_logs_) {
      // The record checksum covers the value; reseal the off word.
      mem.store_word(*ctx_, c_, &e->off, LogEntry::seal(e->off, val), nvm::Space::kLog);
    }
    return;
  }
  if (!windex_.insert(off, static_cast<int64_t>(n_log_))) {
    capacity_abort(CapacityKind::kWriteIndex);
  }
  append_log(off, val);
}

void Tx::lazy_commit() {
  nvm::Pool& pool = rt_->pool();
  nvm::Memory& mem = pool.mem();
  const nvm::CostModel& cm = pool.config().cost;
  ctx_->advance(static_cast<uint64_t>(cm.tx_commit_ns));

  if (n_log_ == 0 && tx_frees_.empty() && n_alloc_log_ == 0) {
    // Read-only: reads were validated incrementally; nothing to persist.
    return;
  }

  OrecTable& orecs = rt_->orecs();
  const auto me = static_cast<uint32_t>(worker_);

  // Every CAS below is a full barrier, so orec misses met inside the loop
  // would serialize; start them all first.
  for (size_t i = 0; i < n_log_; i++) {
    orecs.prefetch(pool.at(LogEntry::offset_of(slot_.entry_at(i)->off)));
  }

  // 1. Acquire the write set's orecs (abort-on-conflict, no waiting).
  for (size_t i = 0; i < n_log_; i++) {
    auto* home = static_cast<uint64_t*>(pool.at(LogEntry::offset_of(slot_.entry_at(i)->off)));
    std::atomic<uint64_t>& orec = orecs.for_addr(home);
    const uint64_t cur = orec.load(std::memory_order_acquire);
    if (OrecTable::is_locked(cur)) {
      if (OrecTable::owner_of(cur) == me) continue;  // hash collision / dup
      // Containment: reclaim a dead owner's lock before giving up.
      if (cm_) cm_->on_locked_orec(OrecTable::owner_of(cur), *ctx_, c_);
      // handle_abort restores the orecs acquired so far
      abort_tx(stats::AbortCause::kConflictWrite);
    }
    if (OrecTable::version_of(cur) > start_time_) {
      abort_tx(stats::AbortCause::kConflictWrite);
    }
    uint64_t expected = cur;
    ctx_->advance(static_cast<uint64_t>(cm.cas_ns));
    if (!orec.compare_exchange_strong(expected, OrecTable::lock_word(me),
                                      std::memory_order_acq_rel)) {
      abort_tx(stats::AbortCause::kConflictWrite);
    }
    if (rsan_) rsan_->on_orec_acquire(worker_, &orec);
    owned_.push_back(OwnedOrec{&orec, cur});
  }

  // 2. Linearization point setup: take a commit timestamp.
  const uint64_t wv = orecs.tick();
  commit_ticket_ = wv;

  // 3. Validate the read set (skippable when nothing committed since begin).
  if (wv != start_time_ + 1) {
    stats::PhaseTimer vt(*ctx_, &c_->phases, stats::Phase::kValidate);
    if (!validate_read_set()) abort_tx(stats::AbortCause::kValidation);
  }

  // Epoch mode: hand steps 4's fence sequence to the group-commit leader
  // (seal with stores only, publish, wait for the durable epoch ack), then
  // run the same write-back/retire tail. See epoch.h.
  if (EpochManager* ep = rt_->epochs()) {
    epoch_lazy_publish(*ep, wv);
    return;
  }

  {
    // One flush-drain window covers the log persist, the commit record and
    // the write-back flush — the fence-extended region the paper blames for
    // longer lock-hold times under ADR.
    stats::PhaseTimer ft(*ctx_, &c_->phases, stats::Phase::kFlushDrain);
    analysis::PhaseScope ps(psan_, worker_, stats::Phase::kFlushDrain);

    // 4. Persist the redo log, then the commit record (ADR: one fence each;
    //    eADR/PDRAM elide the flushes inside mem).
    mem.store_word(*ctx_, c_, &slot_.header->log_count, n_log_, nvm::Space::kLog);
    mem.store_word(*ctx_, c_, &slot_.header->algo, static_cast<uint64_t>(algo_),
                   nvm::Space::kLog);
    if (crc_logs_) {
      // Whole-log checksum (crash-sim configs): recovery cross-checks the
      // committed record set beyond the per-record crcs. Persisted by the
      // header flush below, *before* the commit-status flip, so a torn
      // header line can never pair a new status with a stale checksum.
      uint32_t lc = 0;
      for (size_t i = 0; i < n_log_; i++) {
        const LogEntry* e = slot_.entry_at(i);
        lc = util::crc32c_u64(e->val, util::crc32c_u64(e->off, lc));
      }
      mem.store_word(*ctx_, c_, &slot_.header->pad[SlotLayout::kLogCrcPad], lc,
                     nvm::Space::kLog);
    }
    if (slot_.mirrored) {
      // Reseal the primary header CRC over the new counts now; the mirror
      // COMMITTED image gets its own batch *after* the records' fence.
      seal_primary_header_crc(pool, *ctx_, c_, slot_);
    }
    persist_log_range(0, n_log_);
    persist_slot_header();
    mem.sfence(*ctx_, c_);
    // Ordering point (redo rule): the whole redo log and its header must
    // be durable before the COMMITTED record — a commit record over a
    // torn log is exactly the inconsistency recovery's CRCs exist to
    // catch, and without it redo replay applies garbage.
    psan_check_log_persisted(0, n_log_, analysis::DiagKind::kMissingFlush,
                             "redo record unpersisted at commit-record seal");
    psan_check_header_persisted(analysis::DiagKind::kMissingFlush,
                                "slot header unpersisted at commit-record seal");
    if (slot_.mirrored) {
      // Mirror commit record ahead of the primary seal, in its own
      // fence-delimited batch. The mirror's COMMITTED image is a durable
      // commit mark in its own right (recovery trusts it when the primary
      // header is damaged), so it must not be *flushable* before the log
      // records' fence above — a spontaneous writeback could otherwise
      // publish the commit over records that never persisted. The fence
      // below then makes the replica durable before the primary seal.
      seal_and_mirror_header(pool, *ctx_, c_, slot_,
                             TxSlotHeader::make(epoch_, TxSlotHeader::kCommitted));
      mem.sfence(*ctx_, c_);
      psan_check_mirror_log_persisted(0, n_log_, analysis::DiagKind::kMissingFlush,
                                      "mirror redo record unpersisted at commit-record seal");
      psan_check_mirror_header_persisted(analysis::DiagKind::kMissingFlush,
                                         "mirror header unpersisted at commit-record seal");
    }
    set_status(TxSlotHeader::kCommitted, /*fence=*/true);
    // ---- durable commit point ----
    committed_hint_ = true;  // reclamation must now roll FORWARD

    // Ordering point (write-back rule): home-location stores must not
    // start until the commit record is durable — otherwise a crash sees
    // partially-written-back data with an un-sealed log, and recovery
    // rolls the slot back over data the write-back already changed.
    psan_check_header_persisted(analysis::DiagKind::kMisorderedPersist,
                                "write-back ahead of the sealed commit record");

    // 5. Write back to home locations and persist them. Alloc-only /
    // free-only transactions (n_log_ == 0) have nothing to write back and
    // skip the batch — flushing nothing and fencing nothing (psan's
    // redundant-fence lint flagged the unconditional sfence here).
    if (n_log_ > 0) {
      for (size_t i = 0; i < n_log_; i++) {
        const LogEntry* e = slot_.entry_at(i);
        auto* home = static_cast<uint64_t*>(pool.at(LogEntry::offset_of(e->off)));
        mem.store_word(*ctx_, c_, home, e->val, nvm::Space::kData);
        dirty_.add(mem.line_of(home));
      }
      for (const uint64_t line : dirty_.lines()) {
        mem.clwb(*ctx_, c_, pool.base() + line * nvm::Memory::kLineBytes);
      }
      mem.sfence(*ctx_, c_);
    }
  }

  // 6. Apply deferred frees now that the transaction is durably committed.
  apply_frees();

  // 7. Retire the log before releasing the locks: the IDLE record must be
  //    durable first, otherwise recovery could replay this (already
  //    written-back) log over data that later transactions have modified.
  retire_logs();

  // 8. Publish the new version.
  release_owned(OrecTable::version_word(wv));
}

void Tx::lazy_abort_cleanup() {
  // Restore every acquired orec to its pre-lock version.
  for (const OwnedOrec& o : owned_) {
    if (rsan_) rsan_->on_orec_release(worker_, o.orec);
    o.orec->store(o.old_word, std::memory_order_release);
  }
  owned_.clear();
}

}  // namespace ptm
