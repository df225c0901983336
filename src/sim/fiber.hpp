/**
 * @file
 * Cooperative fibers: the execution contexts of simulated processors.
 *
 * The simulated multiprocessor (the NWO-substitute, see DESIGN.md) runs
 * every simulated processor/thread as a fiber on one host thread and
 * switches between them at every simulated-memory event. A simulation
 * performs millions of switches, so the x86-64 path uses a hand-rolled
 * callee-saved-register switch; other architectures fall back to
 * ucontext. Measured on a 4-vCPU Xeon VM (gcc 12, -O2): a bare
 * resume + yield round trip (two switches) costs ~28 ns in a tight
 * loop and ~42 ns inside the simulator, where the returns that follow
 * each stack switch go to call sites the return predictor did not see
 * coming; one `switch_to` handoff costs ~14 ns. The scheduler therefore
 * hands control from fiber to fiber directly instead of bouncing
 * through its own stack at every simulated event.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace reactive::sim {

/**
 * A run-to-yield coroutine with its own guarded stack.
 *
 * Exactly one scheduler (the host thread) resumes fibers; a running
 * fiber returns control with `Fiber::yield_current()` or passes it
 * straight to another fiber with `Fiber::switch_to()`. Whichever fiber
 * yields last returns from the scheduler's `resume()`. Fibers never
 * migrate between host threads.
 */
class Fiber {
  public:
    /// @param fn          body; the fiber is `done` after fn returns.
    /// @param stack_bytes usable stack size (rounded up to page size).
    explicit Fiber(std::function<void()> fn, std::size_t stack_bytes = 128 * 1024);
    ~Fiber();

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /// True once the body has returned; resuming a done fiber is an error.
    bool done() const { return done_; }

    /// Transfers control from the scheduler into the fiber.
    void resume();

    /// Transfers control from the running fiber back to the scheduler.
    static void yield_current();

    /// Transfers control from the running fiber directly into @p next
    /// (not done, not the running fiber). Returns when some fiber
    /// switches back to this one or the scheduler resumes it.
    static void switch_to(Fiber& next);

    /// The fiber currently running on this host thread, or nullptr.
    static Fiber* current() { return current_; }

  private:
    static inline thread_local Fiber* current_ = nullptr;

    std::function<void()> fn_;
    void* stack_base_ = nullptr;   ///< mmap base (includes guard page)
    std::size_t map_bytes_ = 0;
    bool done_ = false;

#if defined(__x86_64__)
    void* sp_ = nullptr;  ///< saved stack pointer when suspended
#else
    /// Creates the context on first entry (resume or switch_to).
    void start_context();

    ucontext_t ctx_{};
    bool started_ = false;
#endif

    friend void fiber_entry_trampoline(Fiber*);
};

}  // namespace reactive::sim
