// Message arena: recycled fixed-capacity batches for control-plane sends.
//
// The gossip and boot-strap paths used to heap-allocate a std::vector per
// message.  A MessageArena hands out Batch leases backed by a pool of
// fixed-capacity chunks; a chunk returns to the free list when the last
// lease drops, so the steady state allocates nothing — chunks are amortized
// infrastructure, like the event slab (PR 1).
//
// Lifetime rules:
//   * A Batch is a ref-counted lease.  Copying it (the fault injector
//     duplicates delivery callbacks) bumps a plain uint32 refcount in the
//     chunk — deterministic, no heap.
//   * Batches may outlive the MessageArena object: delivery callbacks
//     queued in the simulator can drain after the owning System is gone
//     (members are destroyed before the Simulation declared above them).
//     The pool is therefore shared-ptr-owned; the last lease frees it.
//   * Batch capacity is fixed at construction; push_back past capacity is
//     a programming error (asserted), not a growth path.
//   * The arena is shard-confined, NOT thread-safe (DESIGN.md §13): every
//     lease lives and dies on the owning System's shard, so the refcount
//     is a plain uint32 on purpose — no mutex, no atomic (the
//     shared-state census pins this).  Cross-shard messaging copies
//     payloads at the tick barrier instead of sharing leases.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace coolstream::core {

/// Pool of fixed-capacity message batches.
template <typename T>
class MessageArena {
  struct Pool;

 public:
  explicit MessageArena(std::size_t batch_capacity)
      : pool_(std::make_shared<Pool>(batch_capacity)) {}

  /// Ref-counted lease on one chunk.  Cheap to copy/move; items are
  /// readable through a span for the lifetime of any lease.
  class Batch {
   public:
    Batch() = default;
    Batch(const Batch& o) noexcept : pool_(o.pool_), chunk_(o.chunk_) {
      if (pool_ != nullptr) ++pool_->chunks[chunk_].refs;
    }
    Batch(Batch&& o) noexcept
        : pool_(std::move(o.pool_)), chunk_(o.chunk_) {
      o.pool_ = nullptr;
    }
    Batch& operator=(const Batch& o) noexcept {
      Batch tmp(o);
      swap(tmp);
      return *this;
    }
    Batch& operator=(Batch&& o) noexcept {
      Batch tmp(std::move(o));
      swap(tmp);
      return *this;
    }
    ~Batch() { reset(); }

    void swap(Batch& o) noexcept {
      pool_.swap(o.pool_);
      std::swap(chunk_, o.chunk_);
    }

    /// Drops this lease; the chunk recycles when the last lease drops.
    void reset() noexcept {
      if (pool_ != nullptr) {
        pool_->release(chunk_);
        pool_ = nullptr;
      }
    }

    void push_back(const T& v) {
      assert(pool_ != nullptr);
      pool_->push(chunk_, v);
    }

    std::span<const T> items() const noexcept {
      if (pool_ == nullptr) return {};
      const auto& c = pool_->chunks[chunk_];
      return {c.items.get(), c.size};
    }
    std::size_t size() const noexcept { return items().size(); }
    bool empty() const noexcept { return size() == 0; }

   private:
    friend class MessageArena;
    Batch(std::shared_ptr<Pool> pool, std::uint32_t chunk) noexcept
        : pool_(std::move(pool)), chunk_(chunk) {}

    std::shared_ptr<Pool> pool_;
    std::uint32_t chunk_ = 0;
  };

  /// A fresh empty batch (recycles a free chunk when one exists).
  Batch make() { return Batch(pool_, pool_->acquire()); }

  std::size_t batch_capacity() const noexcept { return pool_->capacity; }
  /// Chunks ever allocated (amortized infrastructure).
  std::size_t chunk_count() const noexcept { return pool_->chunks.size(); }
  /// Chunks currently leased out.
  std::size_t live_batches() const noexcept {
    return pool_->chunks.size() - pool_->free.size();
  }

 private:
  struct Chunk {
    std::unique_ptr<T[]> items;
    std::uint32_t refs = 0;
    std::uint32_t size = 0;
  };

  struct Pool {
    explicit Pool(std::size_t cap) : capacity(cap) {}

    std::uint32_t acquire() {
      std::uint32_t idx;
      if (!free.empty()) {
        idx = free.back();
        free.pop_back();
      } else {
        idx = static_cast<std::uint32_t>(chunks.size());
        chunks.push_back(Chunk{std::make_unique<T[]>(capacity), 0, 0});
        // Keep the free list's capacity >= chunk count so release() (a
        // noexcept path run from destructors) never allocates.
        free.reserve(chunks.capacity());
      }
      chunks[idx].refs = 1;
      chunks[idx].size = 0;
      return idx;
    }

    void release(std::uint32_t idx) noexcept {
      assert(chunks[idx].refs > 0);
      if (--chunks[idx].refs == 0) free.push_back(idx);
    }

    void push(std::uint32_t idx, const T& v) {
      Chunk& c = chunks[idx];
      assert(c.size < capacity && "MessageArena batch overflow");
      c.items[c.size++] = v;
    }

    std::size_t capacity;
    std::vector<Chunk> chunks;
    std::vector<std::uint32_t> free;
  };

  std::shared_ptr<Pool> pool_;
};

}  // namespace coolstream::core
