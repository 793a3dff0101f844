// Undo-log helpers for the orec-eager algorithm.
//
// The undo log shares the LogEntry/SlotLayout format from redo_log.h (val =
// *old* value). This header adds the volatile bookkeeping the eager
// algorithm needs: the set of orecs it owns (with pre-lock versions, so an
// abort can restore them) and the set of dirtied cache lines (so an ADR
// commit can clwb each written-back line exactly once).
#pragma once

#include <cstdint>
#include <vector>

#include <atomic>

namespace ptm {

struct OwnedOrec {
  std::atomic<uint64_t>* orec;
  uint64_t old_word;  // unlocked version word observed before acquisition
};

/// Tracks unique dirty cache lines for commit-time flushing, in
/// first-insertion order (the order the commit clwbs them). Write sets are
/// small (the paper measures <40 lines even for TPCC/Vacation), so a flat
/// vector with linear dedup is faster than hashing. Consecutive words of
/// one line are the common case, so the last line added is checked before
/// the scan.
class DirtyLines {
 public:
  void add(uint64_t line) {
    if (!lines_.empty() && lines_.back() == line) return;
    for (uint64_t l : lines_) {
      if (l == line) return;
    }
    lines_.push_back(line);
  }
  const std::vector<uint64_t>& lines() const { return lines_; }
  size_t count() const { return lines_.size(); }
  void clear() { lines_.clear(); }

 private:
  std::vector<uint64_t> lines_;
};

}  // namespace ptm
