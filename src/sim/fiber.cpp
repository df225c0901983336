#include "sim/fiber.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

namespace reactive::sim {

namespace {

/// Scheduler-side saved stack pointer / context for this host thread.
#if defined(__x86_64__)
thread_local void* t_sched_sp = nullptr;
#else
thread_local ucontext_t t_sched_ctx;
#endif

std::size_t page_size()
{
    static const std::size_t ps =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return ps;
}

}  // namespace

#if defined(__x86_64__)

// void reactive_fiber_switch(void** save_sp, void* load_sp)
//
// Saves the callee-saved registers of the System V AMD64 ABI on the
// current stack, publishes the stack pointer through *save_sp, installs
// load_sp, restores the registers found there and returns into the
// destination context.
asm(R"(
    .text
    .align 16
    .globl reactive_fiber_switch
    .type  reactive_fiber_switch, @function
reactive_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    ret
    .size reactive_fiber_switch, . - reactive_fiber_switch

    .align 16
    .globl reactive_fiber_boot
    .type  reactive_fiber_boot, @function
reactive_fiber_boot:
    movq  %r12, %rdi
    call  reactive_fiber_entry
    ud2
    .size reactive_fiber_boot, . - reactive_fiber_boot
)");

extern "C" {
void reactive_fiber_switch(void** save_sp, void* load_sp);
void reactive_fiber_boot();  // never called directly; entered via ret

/// First frame of every fiber; never returns. Referenced only from the
/// boot stub's asm, so `used` keeps link-time optimization from
/// discarding it.
__attribute__((used)) void reactive_fiber_entry(Fiber* self)
{
    fiber_entry_trampoline(self);
    __builtin_unreachable();
}
}

#endif  // __x86_64__

void fiber_entry_trampoline(Fiber* self)
{
    self->fn_();
    self->done_ = true;
    // Hand control back to the scheduler forever; a done fiber must
    // never be resumed again.
    for (;;)
        Fiber::yield_current();
}

Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes) : fn_(std::move(fn))
{
    const std::size_t ps = page_size();
    const std::size_t usable = ((stack_bytes + ps - 1) / ps) * ps;
    map_bytes_ = usable + ps;  // one guard page below the stack
    stack_base_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (stack_base_ == MAP_FAILED) {
        std::perror("reactive::sim::Fiber mmap");
        std::abort();
    }
    if (mprotect(stack_base_, ps, PROT_NONE) != 0) {
        std::perror("reactive::sim::Fiber mprotect");
        std::abort();
    }

#if defined(__x86_64__)
    // Craft the initial frame that reactive_fiber_switch will "restore":
    // six callee-saved registers followed by the return address
    // (reactive_fiber_boot). boot finds `this` in %r12. The layout keeps
    // the stack 16-byte aligned at boot's `call`, as the ABI requires.
    auto top = reinterpret_cast<std::uintptr_t>(stack_base_) + map_bytes_;
    top &= ~std::uintptr_t{15};
    auto* frame = reinterpret_cast<void**>(top) - 7;
    frame[0] = nullptr;                                  // r15
    frame[1] = nullptr;                                  // r14
    frame[2] = nullptr;                                  // r13
    frame[3] = this;                                     // r12 -> boot arg
    frame[4] = nullptr;                                  // rbx
    frame[5] = nullptr;                                  // rbp
    frame[6] = reinterpret_cast<void*>(&reactive_fiber_boot);  // ret target
    sp_ = frame;
#endif
}

Fiber::~Fiber()
{
    if (stack_base_ != nullptr)
        munmap(stack_base_, map_bytes_);
}

#if defined(__x86_64__)

void Fiber::resume()
{
    assert(!done_ && "resuming a finished fiber");
    assert(current_ == nullptr && "nested fiber resume");
    current_ = this;
    reactive_fiber_switch(&t_sched_sp, sp_);
    current_ = nullptr;
}

void Fiber::yield_current()
{
    Fiber* self = current_;
    assert(self != nullptr && "yield outside any fiber");
    reactive_fiber_switch(&self->sp_, t_sched_sp);
}

void Fiber::switch_to(Fiber& next)
{
    Fiber* self = current_;
    assert(self != nullptr && "switch_to outside any fiber");
    assert(&next != self && !next.done_);
    current_ = &next;
    reactive_fiber_switch(&self->sp_, next.sp_);
}

#else  // ucontext fallback

namespace {
void ucontext_entry(unsigned hi, unsigned lo)
{
    auto ptr = (static_cast<std::uintptr_t>(hi) << 32) |
               static_cast<std::uintptr_t>(lo);
    fiber_entry_trampoline(reinterpret_cast<Fiber*>(ptr));
}
}  // namespace

void Fiber::start_context()
{
    if (started_)
        return;
    started_ = true;
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = static_cast<char*>(stack_base_) + page_size();
    ctx_.uc_stack.ss_size = map_bytes_ - page_size();
    ctx_.uc_link = nullptr;
    auto ptr = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&ucontext_entry), 2,
                static_cast<unsigned>(ptr >> 32),
                static_cast<unsigned>(ptr & 0xffffffffu));
}

void Fiber::resume()
{
    assert(!done_ && "resuming a finished fiber");
    assert(current_ == nullptr && "nested fiber resume");
    current_ = this;
    start_context();
    swapcontext(&t_sched_ctx, &ctx_);
    current_ = nullptr;
}

void Fiber::yield_current()
{
    Fiber* self = current_;
    assert(self != nullptr && "yield outside any fiber");
    swapcontext(&self->ctx_, &t_sched_ctx);
}

void Fiber::switch_to(Fiber& next)
{
    Fiber* self = current_;
    assert(self != nullptr && "switch_to outside any fiber");
    assert(&next != self && !next.done_);
    current_ = &next;
    next.start_context();
    swapcontext(&self->ctx_, &next.ctx_);
}

#endif

}  // namespace reactive::sim
