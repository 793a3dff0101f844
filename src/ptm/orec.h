// Ownership records (orecs) and the global version clock.
//
// The paper's best-performing PTMs ("orec-lazy", "orec-eager" from [38])
// coordinate concurrent transactions with a table of versioned locks in the
// style of TL2 [26] / TinySTM [27]: a word address hashes to one orec; an
// orec holds either (version << 1) for an unlocked location or
// (owner_id << 1 | 1) while a transaction owns it. The table and the clock
// are *volatile* (DRAM): after a crash all speculation state is gone and
// versions restart from 1, which is safe because recovery quiesces all logs
// before new transactions run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace ptm {

class OrecTable {
 public:
  static constexpr size_t kNumOrecs = 1u << 20;

  OrecTable() : orecs_(new std::atomic<uint64_t>[kNumOrecs]) { reset(); }

  static bool is_locked(uint64_t v) { return (v & 1) != 0; }
  static uint64_t lock_word(uint32_t owner) { return (static_cast<uint64_t>(owner) << 1) | 1; }
  static uint32_t owner_of(uint64_t v) { return static_cast<uint32_t>(v >> 1); }
  static uint64_t version_of(uint64_t v) { return v >> 1; }
  static uint64_t version_word(uint64_t version) { return version << 1; }

  std::atomic<uint64_t>& for_addr(const void* addr) { return orecs_[index_of(addr)]; }

  /// Host cache hint for for_addr(addr): start the miss on its orec now so
  /// a later load or CAS finds it cached. The table is 8 MB, hashed
  /// uniformly, so nearly every first touch in a transaction misses.
  /// Simulated state and time are unaffected.
  void prefetch(const void* addr) const { __builtin_prefetch(&orecs_[index_of(addr)]); }

  std::atomic<uint64_t>& at(size_t i) { return orecs_[i]; }

  /// Current global time; transactions sample it at begin.
  uint64_t sample_clock() const { return clock_.load(std::memory_order_acquire); }

  /// Advance the clock for a committing writer; returns the write version.
  uint64_t tick() { return clock_.fetch_add(1, std::memory_order_acq_rel) + 1; }

  /// Drop all speculation state (startup / post-crash).
  void reset() {
    for (size_t i = 0; i < kNumOrecs; i++) {
      orecs_[i].store(version_word(0), std::memory_order_relaxed);
    }
    clock_.store(1, std::memory_order_release);
  }

 private:
  static size_t index_of(const void* addr) {
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    // Word-granularity hashing, as in the LLVM PTM plugin [39].
    const uint64_t h = (a >> 3) * 0x9e3779b97f4a7c15ull;
    return (h >> 40) & (kNumOrecs - 1);
  }

  std::unique_ptr<std::atomic<uint64_t>[]> orecs_;
  std::atomic<uint64_t> clock_{1};
};

}  // namespace ptm
