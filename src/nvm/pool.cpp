#include "nvm/pool.h"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <stdexcept>

namespace nvm {

Pool::Pool(const SystemConfig& cfg) : cfg_(cfg) {
  const size_t meta_total =
      static_cast<size_t>(cfg_.max_workers) * cfg_.per_worker_meta_bytes;
  const size_t min_size = kHeaderBytes + kRootBytes + meta_total + (1u << 20);
  if (cfg_.pool_size < min_size) {
    throw std::invalid_argument("pool_size too small for layout");
  }
  // Log records pack pool offsets into 32 bits (ptm::LogEntry::kOffBits;
  // the freed bits hold the per-record checksum), so the pool must fit.
  if (cfg_.pool_size > (1ull << 32)) {
    throw std::invalid_argument("pool_size exceeds the 4 GB log-offset limit");
  }

  // Anonymous private pages read as zero until first written, so the pool
  // starts cleared without touching it: only the pages that formatting,
  // population and the run write are ever faulted in.
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t data_bytes = (cfg_.pool_size + page - 1) / page * page;
  map_bytes_ = data_bytes + page;
  void* p = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<char*>(p);
  if (mprotect(base_ + data_bytes, page, PROT_NONE) != 0) {
    munmap(base_, map_bytes_);
    throw std::bad_alloc();
  }

  PoolHeader* h = header();
  h->magic = kMagic;
  h->size = cfg_.pool_size;
  h->meta_off = kHeaderBytes + kRootBytes;
  h->meta_per_worker = cfg_.per_worker_meta_bytes;
  h->heap_off = h->meta_off + meta_total;
  h->initialized = 1;

  mem_ = std::make_unique<Memory>(cfg_, base_, cfg_.pool_size);
  mem_->set_log_line_range(h->meta_off / Memory::kLineBytes,
                           h->heap_off / Memory::kLineBytes);
  // The formatted (empty) pool is the initial persisted state.
  mem_->checkpoint_all_persistent();
}

Pool::~Pool() {
  mem_.reset();  // Memory points into the mapping; drop it first
  munmap(base_, map_bytes_);
}

}  // namespace nvm
