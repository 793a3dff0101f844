// Memory-Mode DRAM cache directory.
//
// In Intel Memory Mode the on-CPU memory controller keeps a directory (DIR
// in paper Fig 1a) that lets DRAM act as a direct-mapped, line-granularity
// cache of Optane physical memory. The paper's PDRAM proposal (Fig 5a)
// reuses exactly this mechanism and adds reserve power, so DRAM becomes a
// *persistent* cache. We model the directory as direct-mapped over 64-byte
// lines (matching the real Memory-Mode implementation):
//   * hit  -> the access is served at DRAM cost;
//   * miss -> the line is fetched from Optane; if the victim slot is dirty
//     the victim line is written back to Optane (asynchronously — it books
//     the Optane write channel but the accessor does not wait for it).
//
// The capacity parameter is what produces the paper's Fig 8 cliff when the
// working set stops fitting in DRAM.
//
// Only PDRAM over Optane has a directory: nvm::Memory builds every other
// domain's with zero slots, so those pay nothing to construct or reset it.
//
// Slot encoding: one uint64_t per slot, `line << 1 | dirty`, with ~0 as the
// empty sentinel. Line ids must therefore stay below 2^63 - 1 (the line
// whose dirty encoding is the sentinel); pool and virtual line ids are far
// below that, and access() asserts it.
#pragma once

#include <cstdint>
#include <vector>

namespace nvm {

class DramCacheDirectory {
 public:
  static constexpr uint64_t kNoLine = ~0ull;
  /// Largest line id a slot can hold.
  static constexpr uint64_t kMaxLine = (1ull << 63) - 2;

  struct AccessResult {
    bool hit;
    uint64_t evicted_dirty_line;  // kNoLine if clean / empty victim
  };

  /// One slot per whole 64-byte line of `capacity_bytes`. A capacity below
  /// one line gives an empty directory, on which access() must not be
  /// called.
  explicit DramCacheDirectory(uint64_t capacity_bytes);

  AccessResult access(uint64_t line, bool is_write);

  void reset();

  uint64_t num_slots() const { return slots_.size(); }

 private:
  static constexpr uint64_t kEmpty = ~0ull;

  std::vector<uint64_t> slots_;
};

}  // namespace nvm
