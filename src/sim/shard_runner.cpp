#include "sim/shard_runner.h"

#include <cassert>

namespace coolstream::sim {
namespace {

/// Spin iterations before a waiter parks: ~10 us at the ~20 ns an x86
/// `pause` takes on a Xeon.  That covers the gap between two phases of one
/// tick (the caller finishing shard 0 and its serial glue) but not the
/// serial effect flush or the event dispatch between ticks, where waiters
/// park instead of burning a core another process could use.  Spinning
/// longer (2048, 8192) measured no faster on the 4-shard peak benchmark and
/// tripled the CPU time of the oversubscribed sharded test tier.
constexpr int kSpinLimit = 512;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

ShardRunner::ShardRunner(std::size_t shards) : errors_(shards) {
  assert(shards >= 1);
  workers_.reserve(shards - 1);
  for (std::size_t s = 1; s < shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ShardRunner::~ShardRunner() {
  if (workers_.empty()) return;
  stopping_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ShardRunner::run_erased(Call call, void* ctx) {
  if (workers_.empty()) {
    call(ctx, 0);
    return;
  }
  call_ = call;
  ctx_ = ctx;
  pending_.store(static_cast<std::uint32_t>(workers_.size()),
                 std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();

  try {
    call(ctx, 0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }

  int spins = 0;
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire)) {
    if (spins < kSpinLimit) {
      ++spins;
      cpu_relax();
    } else {
      pending_.wait(left, std::memory_order_acquire);
    }
  }

  std::exception_ptr first;
  for (std::exception_ptr& e : errors_) {
    if (!first) first = e;
    e = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void ShardRunner::worker_loop(std::size_t shard) {
  std::uint32_t seen = 0;
  for (;;) {
    int spins = 0;
    std::uint32_t now = generation_.load(std::memory_order_acquire);
    while (now == seen) {
      if (spins < kSpinLimit) {
        ++spins;
        cpu_relax();
      } else {
        generation_.wait(seen, std::memory_order_acquire);
      }
      now = generation_.load(std::memory_order_acquire);
    }
    seen = now;
    if (stopping_) return;
    try {
      call_(ctx_, shard);
    } catch (...) {
      errors_[shard] = std::current_exception();
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

}  // namespace coolstream::sim
