// Synchronization buffer (Fig. 2a/2b).
//
// "A received block is firstly put into the synchronization buffer for each
// corresponding sub-stream.  They will be combined into one stream when
// blocks with continuous sequence numbers have been received from each
// sub-stream."
//
// Blocks never arrive out of order in this model: a parent "will simply
// push out all blocks of a sub-stream in need" (§IV-B), so each block the
// data plane delivers is exactly the sub-stream's head + 1, and a gap (a
// deadline or window skip) is a jump of the head, never a hole behind it.
// The buffer therefore keeps one contiguous head per sub-stream, moved by
// runs of blocks, and exposes the combined prefix of the interleaved global
// order.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/stream_types.h"

namespace coolstream::core {

/// Per-node synchronization buffer for K sub-streams.
class SyncBuffer {
 public:
  explicit SyncBuffer(int k);

  int substream_count() const noexcept {
    return static_cast<int>(heads_.size());
  }

  /// Receives the next `n` > 0 blocks of sub-stream `i` in order: the head
  /// moves from h to h + n.  The combined prefix is recomputed once per
  /// run; it is monotone and idempotent, so this equals recomputing it
  /// after every block.
  void advance(SubstreamId i, BlockCount n) noexcept {
    assert(i.index() < heads_.size());
    assert(n > BlockCount::zero());
    heads_[i.index()] += n;
    units::tally(received_, n);
    ++version_;
    recompute_combined();
  }

  /// Latest *contiguous* sequence number of sub-stream `i` (-1: none).
  /// This is what the node advertises in its Buffer Map.
  SeqNum head(SubstreamId i) const noexcept {
    assert(i.index() < heads_.size());
    return heads_[i.index()];
  }

  /// Jump-starts a sub-stream at `seq - 1`, declaring every earlier block
  /// irrelevant.  Used at join time: the node starts pulling from the
  /// initial sequence number chosen per §IV-A and never looks back.  Never
  /// moves a head backwards.
  void start_at(SubstreamId i, SeqNum seq);

  /// Declares the global prefix [0, g] irrelevant (already played or
  /// skipped at join).  Call once after start_at() initialized every
  /// sub-stream, with g = first wanted global block - 1; keeps combined()
  /// incremental instead of scanning from stream start.
  void set_combined_floor(GlobalSeq g) noexcept;

  /// Last global block such that the whole interleaved prefix is
  /// combinable (Fig. 2b); -1 when nothing combinable yet.  Cached;
  /// O(new blocks) amortized.
  GlobalSeq combined() const noexcept { return combined_; }

  /// max head - min head across sub-streams: the Ineq.-(1) spread.
  BlockCount spread() const noexcept;

  /// Total blocks received through advance().
  std::uint64_t blocks_received() const noexcept { return received_; }

  /// Monotonic mutation counter: bumps whenever the heads can have moved
  /// (advance or start_at).  A cached BufferMap built from these heads is
  /// valid exactly while the version is unchanged — the dirty bit for
  /// Peer's current-BM cache.
  std::uint64_t version() const noexcept { return version_; }

 private:
  friend struct InvariantTestAccess;  // seeded-corruption hooks (tests only)

  void recompute_combined() noexcept {
    combined_ = combined_prefix(heads_.data(), substream_count(), combined_);
  }

  std::vector<SeqNum> heads_;
  GlobalSeq combined_ = kNoSeq;
  std::uint64_t received_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace coolstream::core
