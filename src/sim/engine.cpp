#include "sim/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <limits>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// sim_fiber_switch(save_sp, load_sp): push the callee-saved registers, MXCSR
// and the x87 control word, store rsp to *save_sp, load rsp from load_sp and
// pop the same set back. Everything else is caller-saved, so the call itself
// tells the compiler it is clobbered.
//
// sim_fiber_entry: where a fresh fiber's first switch "returns" to. The
// seeded frame leaves the Engine* in r12, the worker id in r13 and
// Engine::fiber_main in r14. rip is marked undefined so unwinders (and
// backtrace()) stop at the fiber boundary instead of walking off the stack.
extern "C" void sim_fiber_switch(void** save_sp, void* load_sp);
extern "C" void sim_fiber_entry();

asm(R"(
  .text
  .globl sim_fiber_switch
  .hidden sim_fiber_switch
  .type sim_fiber_switch, @function
  .p2align 4
sim_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size sim_fiber_switch, .-sim_fiber_switch

  .globl sim_fiber_entry
  .hidden sim_fiber_entry
  .type sim_fiber_entry, @function
  .p2align 4
sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r12, %rdi
  movl %r13d, %esi
  callq *%r14
  ud2
  .cfi_endproc
  .size sim_fiber_entry, .-sim_fiber_entry
)");

namespace sim {

namespace {

// What sim_fiber_switch leaves at the saved stack pointer, lowest address
// first. A fresh fiber's stack is seeded with one of these at its top.
struct SwitchFrame {
  uint32_t mxcsr;
  uint16_t x87_cw;
  uint16_t pad;
  void* r15;
  void* r14;
  void* r13;
  void* r12;
  void* rbx;
  void* rbp;
  void (*ret)();
};
// The entry thunk's call must see a 16-byte-aligned rsp once the frame is
// popped, so the frame must be a multiple of 16 below an aligned stack top.
static_assert(sizeof(SwitchFrame) % 16 == 0);

size_t page_bytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

void SimContext::yield() { engine_->schedule_from(id_); }

int SimContext::num_workers() const { return engine_->num_workers(); }

Engine::Stacks::Stacks(int count) {
  // Guard pages are mprotect()ed, so every slot must stay page-aligned.
  static_assert(kStackBytes % 4096 == 0);
  const size_t page = page_bytes();
  const size_t slot = page + kStackBytes;
  map_bytes_ = slot * static_cast<size_t>(count);
  void* p = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  map_ = static_cast<char*>(p);
  for (int i = 0; i < count; i++) {
    if (mprotect(map_ + slot * static_cast<size_t>(i), page, PROT_NONE) != 0) {
      munmap(map_, map_bytes_);
      throw std::bad_alloc();
    }
  }
}

Engine::Stacks::~Stacks() {
#if defined(__SANITIZE_ADDRESS__)
  // Abandoned fiber frames leave stack redzones in the shadow, and munmap
  // does not clear them: the next mapping placed here (a pool) would read
  // as poisoned stack.
  ASAN_UNPOISON_MEMORY_REGION(map_, map_bytes_);
#endif
  munmap(map_, map_bytes_);
}

char* Engine::Stacks::base(int i) const {
  const size_t page = page_bytes();
  return map_ + (page + kStackBytes) * static_cast<size_t>(i) + page;
}

Engine::Engine(int num_workers)
    : n_(num_workers), stacks_(num_workers), sp_(static_cast<size_t>(num_workers)) {
  assert(num_workers > 0);
}

int Engine::pick_next(uint64_t* run_until) const {
  int best = -1;
  uint64_t best_t = std::numeric_limits<uint64_t>::max();
  uint64_t second_t = std::numeric_limits<uint64_t>::max();
  for (int i = 0; i < n_; i++) {
    if (done_[static_cast<size_t>(i)]) continue;
    const uint64_t t = ctx_[static_cast<size_t>(i)].time_ns_;
    if (t < best_t) {
      second_t = best_t;
      best_t = t;
      best = i;
    } else if (t < second_t) {
      second_t = t;
    }
  }
  *run_until = second_t;
  return best;
}

void Engine::schedule_from(int id) {
  uint64_t run_until = 0;
  const int next = pick_next(&run_until);
  if (next >= 0) ctx_[static_cast<size_t>(next)].run_until_ = run_until;
  if (next != id) switch_to(id, next);
}

void Engine::switch_to(int from, int to) {
  void** save = from < 0 ? &run_sp_ : &sp_[static_cast<size_t>(from)];
  void* load = to < 0 ? run_sp_ : sp_[static_cast<size_t>(to)];
#if defined(__SANITIZE_ADDRESS__)
  // A finished fiber never resumes: a null slot lets ASan free its fake
  // stack.
  const bool finished = from >= 0 && done_[static_cast<size_t>(from)];
  void* fake_stack = nullptr;
  switched_from_ = from;
  __sanitizer_start_switch_fiber(finished ? nullptr : &fake_stack,
                                 to < 0 ? run_stack_bottom_ : stacks_.base(to),
                                 to < 0 ? run_stack_size_ : kStackBytes);
  sim_fiber_switch(save, load);
  finish_switch(fake_stack);
#else
  sim_fiber_switch(save, load);
#endif
}

void Engine::finish_switch([[maybe_unused]] void* fake_stack) {
#if defined(__SANITIZE_ADDRESS__)
  const void* bottom = nullptr;
  size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  if (switched_from_ < 0) {
    run_stack_bottom_ = bottom;
    run_stack_size_ = size;
  }
#endif
}

void Engine::fiber_main(Engine* engine, int id) {
  engine->finish_switch(nullptr);
  try {
    (*engine->body_)(engine->ctx_[static_cast<size_t>(id)]);
  } catch (...) {
    if (!engine->first_error_) engine->first_error_ = std::current_exception();
  }
  engine->done_[static_cast<size_t>(id)] = true;
  engine->schedule_from(id);
  __builtin_unreachable();
}

void Engine::run(const std::function<void(ExecContext&)>& body) {
  body_ = &body;
  first_error_ = nullptr;
  ctx_.assign(static_cast<size_t>(n_), SimContext{});
  done_.assign(static_cast<size_t>(n_), false);

  // Fresh fibers start with run()'s floating-point control state.
  uint32_t mxcsr = 0;
  uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));

  for (int i = 0; i < n_; i++) {
    auto& c = ctx_[static_cast<size_t>(i)];
    c.engine_ = this;
    c.id_ = i;

    char* top = stacks_.base(i) + kStackBytes;
#if defined(__SANITIZE_ADDRESS__)
    // The last run's abandoned frames left redzones behind.
    ASAN_UNPOISON_MEMORY_REGION(stacks_.base(i), kStackBytes);
#endif
    auto* frame = reinterpret_cast<SwitchFrame*>(top) - 1;
    *frame = SwitchFrame{};
    frame->mxcsr = mxcsr;
    frame->x87_cw = x87_cw;
    frame->r12 = this;
    frame->r13 = reinterpret_cast<void*>(static_cast<uintptr_t>(i));
    frame->r14 = reinterpret_cast<void*>(&Engine::fiber_main);
    frame->ret = &sim_fiber_entry;
    sp_[static_cast<size_t>(i)] = frame;
  }

  schedule_from(-1);  // returns once every worker is done

  elapsed_ns_ = 0;
  for (int i = 0; i < n_; i++) {
    elapsed_ns_ = std::max(elapsed_ns_, ctx_[static_cast<size_t>(i)].time_ns_);
  }
  body_ = nullptr;

  if (first_error_) std::rethrow_exception(first_error_);
}

}  // namespace sim
