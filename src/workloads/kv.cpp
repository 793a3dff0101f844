#include "workloads/kv.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace workloads {

namespace {
struct Root {
  uint64_t buckets;
  uint64_t nbuckets;
};

uint64_t round_pow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Key layout: prefix, 20 decimal digits, 'x' up to byte 120, then NULs.
constexpr char kPrefix[] = "memaslap-key-";
constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
constexpr size_t kDigitsEnd = kPrefixLen + 20;
constexpr size_t kPadEnd = 120;
constexpr size_t kKeyLen = sizeof(util::Key128);

// util::fnv1a, one byte at a time.
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;
constexpr uint64_t fnv_step(uint64_t h, unsigned char b) { return (h ^ b) * kFnvPrime; }

constexpr uint64_t kAfterPrefix = [] {
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < kPrefixLen; i++) h = fnv_step(h, static_cast<unsigned char>(kPrefix[i]));
  return h;
}();

// FNV of the fixed tail (bytes kDigitsEnd..127) from state h, byte by byte.
constexpr uint64_t fnv_tail(uint64_t h) {
  for (size_t i = kDigitsEnd; i < kKeyLen; i++) h = fnv_step(h, i < kPadEnd ? 'x' : 0);
  return h;
}

// Closed form of fnv_tail: every tail byte is below 2^7, so h ^ b equals
// h + d(h mod 128), and the low 7 bits of each later state depend only on
// h mod 128. Hence fnv_tail(h) = h * P^95 + T[h & 127].
static_assert('x' < 128);
constexpr uint64_t kTailMul = [] {
  uint64_t m = 1;
  for (size_t i = kDigitsEnd; i < kKeyLen; i++) m *= kFnvPrime;
  return m;
}();
constexpr std::array<uint64_t, 128> kTailAdd = [] {
  std::array<uint64_t, 128> t{};
  for (uint64_t r = 0; r < t.size(); r++) t[r] = fnv_tail(r) - r * kTailMul;
  return t;
}();
}  // namespace

size_t KvStore::pool_bytes() const {
  // Real bytes: items (256B class for the 168B struct) + bucket array.
  const uint64_t need = p_.items * 384 + round_pow2(p_.items) * 8 + (64ull << 20);
  return std::max<uint64_t>(256ull << 20, need);
}

util::Key128 KvStore::key_of(uint64_t k) {
  // 128-byte keys as memaslap generates: a printable prefix + padding.
  util::Key128 key;
  std::memcpy(key.data, kPrefix, kPrefixLen);
  std::memset(key.data + kPrefixLen, '0', kDigitsEnd - kPrefixLen);
  for (size_t i = kDigitsEnd; k != 0; k /= 10) key.data[--i] = static_cast<char>('0' + k % 10);
  std::memset(key.data + kDigitsEnd, 'x', kPadEnd - kDigitsEnd);
  return key;
}

uint64_t KvStore::hash_of(const util::Key128& key) {
  uint64_t h = kAfterPrefix;
  for (size_t i = kPrefixLen; i < kDigitsEnd; i++) {
    h = fnv_step(h, static_cast<unsigned char>(key.data[i]));
  }
  return h * kTailMul + kTailAdd[h & 127];
}

void KvStore::setup(ptm::Runtime& rt, sim::ExecContext& ctx) {
  auto* root = rt.pool().root<Root>();
  nbuckets_ = round_pow2(std::max<uint64_t>(16, p_.items));
  rt.run(ctx, [&](ptm::Tx& tx) {
    void* arr = rt.allocator().alloc_raw(ctx, nullptr, nbuckets_ * 8);
    tx.write(&root->buckets, reinterpret_cast<uint64_t>(arr));
    tx.write(&root->nbuckets, nbuckets_);
  });
  buckets_ = reinterpret_cast<uint64_t*>(rt.pool().root<Root>()->buckets);
  virtual_line_base_ = rt.pool().mem().virtual_line_base();
  next_virtual_line_ = virtual_line_base_;

  // Populate every key once (the working set the client will hit).
  for (uint64_t k = 0; k < p_.items; k++) {
    request(rt, ctx, k, /*is_get=*/false);
  }
}

void KvStore::request(ptm::Runtime& rt, sim::ExecContext& ctx, uint64_t k, bool is_get) {
  const util::Key128 key = key_of(k);
  const uint64_t h = hash_of(key);
  uint64_t* bucket = &buckets_[h & (nbuckets_ - 1)];
  nvm::Memory& mem = rt.pool().mem();
  const uint64_t value_lines = (p_.value_bytes + 63) / 64;

  rt.run(ctx, [&](ptm::Tx& tx) {
    // Index walk: hash compare first, then the full 128-byte key compare
    // (16 word reads — the real index traffic of the paper's memcached).
    Item* found = nullptr;
    for (uint64_t cur = tx.read(bucket); cur != 0;) {
      auto* it = reinterpret_cast<Item*>(cur);
      if (tx.read(&it->hash) == h) {
        util::Key128 stored;
        tx.read_bytes(&it->key, &stored, sizeof(stored));
        if (stored == key) {
          found = it;
          break;
        }
      }
      cur = tx.read(&it->next);
    }

    auto* c = &rt.counters(ctx.worker_id());
    if (is_get) {
      if (found == nullptr) return;  // miss (only before population)
      (void)tx.read(&found->version);
      // Stream the value out of persistent memory.
      mem.touch_lines(ctx, c, tx.read(&found->value_line), value_lines,
                      /*is_write=*/false, nvm::Space::kData);
      return;
    }

    if (found != nullptr) {
      // Overwrite in place: value traffic + (under ADR) its flushes.
      mem.touch_lines(ctx, c, tx.read(&found->value_line), value_lines,
                      /*is_write=*/true, nvm::Space::kData);
      mem.persist_lines(ctx, c, tx.read(&found->value_line), value_lines);
      tx.write(&found->version, tx.read(&found->version) + 1);
      return;
    }

    // Fresh item.
    auto* it = tx.alloc_obj<Item>();
    tx.write(&it->hash, h);
    tx.write_bytes(&it->key, &key, sizeof(key));
    const uint64_t vline = next_virtual_line_;
    next_virtual_line_ += value_lines;
    tx.write(&it->value_line, vline);
    tx.write(&it->value_bytes, p_.value_bytes);
    tx.write(&it->version, uint64_t{1});
    tx.write(&it->next, tx.read(bucket));
    tx.write(bucket, reinterpret_cast<uint64_t>(it));
    mem.touch_lines(ctx, c, vline, value_lines, /*is_write=*/true, nvm::Space::kData);
    mem.persist_lines(ctx, c, vline, value_lines);
  });
}

void KvStore::op(ptm::Runtime& rt, sim::ExecContext& ctx, util::Rng& rng) {
  ctx.advance(p_.compute_ns);
  const uint64_t k = rng.next_bounded(p_.items);
  request(rt, ctx, k, rng.chance_pct(p_.get_pct));
}

void KvStore::verify(ptm::Runtime& rt, sim::ExecContext& ctx) {
  // Every populated key must be retrievable.
  for (uint64_t k = 0; k < std::min<uint64_t>(p_.items, 256); k++) {
    const util::Key128 key = key_of(k);
    const uint64_t h = hash_of(key);
    bool ok = false;
    rt.run(ctx, [&](ptm::Tx& tx) {
      ok = false;
      for (uint64_t cur = tx.read(&buckets_[h & (nbuckets_ - 1)]); cur != 0;) {
        auto* it = reinterpret_cast<Item*>(cur);
        if (tx.read(&it->hash) == h) {
          util::Key128 stored;
          tx.read_bytes(&it->key, &stored, sizeof(stored));
          if (stored == key) {
            ok = true;
            break;
          }
        }
        cur = tx.read(&it->next);
      }
    });
    if (!ok) throw std::runtime_error("KvStore: populated key missing");
  }
}

WorkloadFactory kv_factory(KvParams p) {
  return [p] { return std::make_unique<KvStore>(p); };
}

}  // namespace workloads
