#include "core/sync_buffer.h"

#include <algorithm>

namespace coolstream::core {

SyncBuffer::SyncBuffer(int k) : heads_(static_cast<std::size_t>(k), kNoSeq) {
  assert(k >= 1);
}

void SyncBuffer::start_at(SubstreamId i, SeqNum seq) {
  assert(i.index() < heads_.size());
  SeqNum& head = heads_[i.index()];
  head = std::max(head, seq - BlockCount(1));
  ++version_;
}

void SyncBuffer::set_combined_floor(GlobalSeq g) noexcept {
  if (g > combined_) combined_ = g;
  recompute_combined();
}

BlockCount SyncBuffer::spread() const noexcept {
  const auto [lo, hi] = std::minmax_element(heads_.begin(), heads_.end());
  return *hi - *lo;
}

}  // namespace coolstream::core
