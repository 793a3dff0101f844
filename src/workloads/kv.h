// Memcached-like key/value store + synthetic client (paper §III.A, §IV.E).
//
// The paper transactionalizes memcached [44] and drives it with memaslap:
// 50/50 get/set, 128-byte keys, 1-KB values, uniformly random keys — chosen
// so every request misses up to the smallest hierarchy level that holds the
// working set (Fig 8). We reproduce the store as a library: a chained hash
// index whose buckets/items are real persistent data accessed through the
// PTM, and whose 1-KB values are *virtual payloads*: their cache/memory
// footprint is modelled line-by-line (nvm::Memory::touch_lines), but no
// host bytes are materialized. That is what makes the paper's up-to-320-GB
// working sets reproducible on this host at 1/256 scale (see DESIGN.md).
//
// Keys are "memaslap-key-" + 20 zero-padded digits + 87 'x' + 8 NULs.
// FNV-1a's low 7 bits evolve independently of the high bits and 'x' < 128,
// so the 95-byte fixed tail hashes in closed form: h*P^95 + T[h & 127].
#pragma once

#include "util/strkey.h"
#include "workloads/driver.h"

namespace workloads {

struct KvParams {
  uint64_t items = 1 << 16;        // working set = items * value_bytes
  uint64_t value_bytes = 1024;
  int get_pct = 50;
  uint64_t compute_ns = 300;       // request parse/dispatch per op
};

class KvStore final : public Workload {
 public:
  explicit KvStore(KvParams p) : p_(p) {}

  std::string name() const override { return "memcached-kv"; }
  size_t pool_bytes() const override;
  void setup(ptm::Runtime& rt, sim::ExecContext& ctx) override;
  void op(ptm::Runtime& rt, sim::ExecContext& ctx, util::Rng& rng) override;
  void verify(ptm::Runtime& rt, sim::ExecContext& ctx) override;

  /// One get (true) or set (false) for key id `k` — exposed for tests.
  void request(ptm::Runtime& rt, sim::ExecContext& ctx, uint64_t k, bool is_get);

  /// The 128-byte key of id `k`, rendered in place (see the header).
  static util::Key128 key_of(uint64_t k);
  /// util::fnv1a over all 128 bytes of a key built by key_of, in closed form.
  static uint64_t hash_of(const util::Key128& key);

  uint64_t virtual_lines_used() const override {
    return next_virtual_line_ - virtual_line_base_;
  }

 private:
  struct Item {
    uint64_t hash;
    util::Key128 key;
    uint64_t value_line;   // first virtual line of the payload
    uint64_t value_bytes;
    uint64_t version;      // bumped by set (the transactional write)
    uint64_t next;
  };

  KvParams p_;
  uint64_t* buckets_ = nullptr;  // pmem array (raw)
  uint64_t nbuckets_ = 0;
  uint64_t virtual_line_base_ = 0;
  uint64_t next_virtual_line_ = 0;
};

WorkloadFactory kv_factory(KvParams p);

}  // namespace workloads
