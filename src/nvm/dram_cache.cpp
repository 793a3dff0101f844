#include "nvm/dram_cache.h"

#include <algorithm>
#include <cassert>

namespace nvm {

DramCacheDirectory::DramCacheDirectory(uint64_t capacity_bytes)
    : slots_(capacity_bytes / 64, kEmpty) {}

DramCacheDirectory::AccessResult DramCacheDirectory::access(uint64_t line, bool is_write) {
  assert(!slots_.empty());
  assert(line <= kMaxLine);
  uint64_t& s = slots_[line % slots_.size()];
  const uint64_t tag = line << 1;
  if ((s & ~1ull) == tag) {
    s |= static_cast<uint64_t>(is_write);
    return {true, kNoLine};
  }
  const uint64_t evicted = (s != kEmpty && (s & 1)) ? s >> 1 : kNoLine;
  s = tag | static_cast<uint64_t>(is_write);
  return {false, evicted};
}

void DramCacheDirectory::reset() { std::fill(slots_.begin(), slots_.end(), kEmpty); }

}  // namespace nvm
