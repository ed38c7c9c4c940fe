// Shard-affine phase runner for the sharded tick.
//
// A phase is one function run once per shard, followed by a barrier.  The
// runner keeps shards - 1 persistent worker threads; worker s always runs
// shard s, and the calling thread runs shard 0 itself, so a shard's data
// stays warm in one core's cache across phases and ticks, and starting a
// phase costs one atomic store instead of a job-queue hand-off.
//
// Synchronization is two atomics.  The caller publishes the phase function
// and bumps `generation_` (release); a worker that sees the new generation
// (acquire) runs its shard and decrements `pending_` (acq_rel).  The caller
// returns from run() once it reads `pending_ == 0` (acquire), which makes
// every write of every shard visible to it — the happens-before edge the
// tick's serial steps (effect flush, reductions) rely on.  Both waits spin
// for a fixed bound (phases of one tick follow each other within
// microseconds) and then park on the atomic (futex), so idle workers cost
// nothing between ticks and an oversubscribed host is not starved.
//
// With one shard there are no workers: run() calls the function inline.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace coolstream::sim {

class ShardRunner {
 public:
  /// Starts `shards - 1` workers (`shards` >= 1).
  explicit ShardRunner(std::size_t shards);

  /// Stops and joins the workers.  Must not run concurrently with run().
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  std::size_t shard_count() const noexcept { return errors_.size(); }

  /// Runs `phase(s)` for every shard s in [0, shard_count()) — shard 0 on
  /// the calling thread, shard s > 0 on worker s — and returns after all of
  /// them finished.  If any shard threw, the exception of the lowest
  /// failing shard is rethrown here, after every shard has finished; the
  /// others are dropped and the runner stays usable.  `phase` must be safe
  /// to call concurrently for distinct shards.  Not reentrant.
  template <typename Phase>
  void run(Phase&& phase) {
    using Fn = std::remove_reference_t<Phase>;
    run_erased(
        [](void* ctx, std::size_t shard) { (*static_cast<Fn*>(ctx))(shard); },
        const_cast<void*>(static_cast<const void*>(&phase)));
  }

 private:
  using Call = void (*)(void*, std::size_t);

  void run_erased(Call call, void* ctx);
  void worker_loop(std::size_t shard);

  // Written by the caller before the release bump of generation_, read by
  // workers after acquiring it: the phase being run, or stop.
  Call call_ = nullptr;
  void* ctx_ = nullptr;
  bool stopping_ = false;
  /// One slot per shard, written only by that shard's thread during a
  /// phase and read by the caller after the barrier.
  std::vector<std::exception_ptr> errors_;
  // census: phase-start signal; bumped (release) by the caller only, workers spin then park on it (acquire)
  std::atomic<std::uint32_t> generation_{0};
  // census: phase barrier; workers still running the phase, decremented (acq_rel) once per worker, caller spins then parks until 0 (acquire)
  std::atomic<std::uint32_t> pending_{0};
  std::vector<std::thread> workers_;
};

}  // namespace coolstream::sim
