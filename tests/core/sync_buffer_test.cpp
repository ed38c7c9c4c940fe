#include "core/sync_buffer.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace coolstream::core {
namespace {

constexpr SubstreamId j0{0};
constexpr SubstreamId j1{1};

TEST(SyncBufferTest, Fresh) {
  SyncBuffer sb(4);
  EXPECT_EQ(sb.substream_count(), 4);
  EXPECT_EQ(sb.head(j0), kNoSeq);
  EXPECT_EQ(sb.combined(), kNoSeq);
  EXPECT_EQ(sb.blocks_received(), 0u);
}

TEST(SyncBufferTest, AdvanceMovesHeadCountsBlocksAndBumpsVersion) {
  SyncBuffer sb(2);
  const std::uint64_t v0 = sb.version();
  sb.advance(j0, BlockCount(3));  // blocks 0, 1, 2
  EXPECT_EQ(sb.head(j0), SeqNum(2));
  EXPECT_EQ(sb.head(j1), kNoSeq);
  EXPECT_EQ(sb.blocks_received(), 3u);
  const std::uint64_t v1 = sb.version();
  EXPECT_GT(v1, v0);
  sb.advance(j0, BlockCount(1));
  EXPECT_EQ(sb.head(j0), SeqNum(3));
  EXPECT_EQ(sb.blocks_received(), 4u);
  EXPECT_GT(sb.version(), v1);
}

TEST(SyncBufferTest, CombinedFollowsFig2bRule) {
  // K=4: block 0 on streams 0..3 -> combined global 3; then block 1 on
  // streams 0..2 only: combined stops at global 6 awaiting stream 3.
  SyncBuffer sb(4);
  for (const SubstreamId i : substreams(4)) sb.advance(i, BlockCount(1));
  EXPECT_EQ(sb.combined(), GlobalSeq(3));
  for (const SubstreamId i : substreams(3)) sb.advance(i, BlockCount(1));
  EXPECT_EQ(sb.combined(), GlobalSeq(6));
  sb.advance(SubstreamId(3), BlockCount(1));
  EXPECT_EQ(sb.combined(), GlobalSeq(7));
}

TEST(SyncBufferTest, CombinedFollowsFig2bAcrossInterleavedRuns) {
  // K=3, global g = (sub-stream g % 3, block g / 3).  Runs of different
  // lengths land on different sub-streams; the combined prefix is the last
  // global block every earlier one of which is in, so it waits for the
  // laggard lane (Fig. 2b).
  SyncBuffer sb(3);
  sb.advance(SubstreamId(0), BlockCount(5));  // heads {4, -1, -1}
  EXPECT_EQ(sb.combined(), GlobalSeq(0));     // global 1 = (1, 0) missing
  sb.advance(SubstreamId(1), BlockCount(2));  // heads {4, 1, -1}
  EXPECT_EQ(sb.combined(), GlobalSeq(1));     // global 2 = (2, 0) missing
  sb.advance(SubstreamId(2), BlockCount(4));  // heads {4, 1, 3}
  EXPECT_EQ(sb.combined(), GlobalSeq(6));     // global 7 = (1, 2) missing
  sb.advance(SubstreamId(1), BlockCount(3));  // heads {4, 4, 3}
  EXPECT_EQ(sb.combined(), GlobalSeq(13));    // global 14 = (2, 4) missing
  sb.advance(SubstreamId(2), BlockCount(1));  // heads {4, 4, 4}
  EXPECT_EQ(sb.combined(), GlobalSeq(14));
}

TEST(SyncBufferTest, StartAtSkipsHistory) {
  SyncBuffer sb(2);
  sb.start_at(j0, SeqNum(100));
  sb.start_at(j1, SeqNum(100));
  EXPECT_EQ(sb.head(j0), SeqNum(99));
  sb.set_combined_floor(global_of(j0, SeqNum(100), 2) - BlockCount(1));
  EXPECT_EQ(sb.combined(), GlobalSeq(199));
  sb.advance(j0, BlockCount(1));  // block 100
  EXPECT_EQ(sb.head(j0), SeqNum(100));
  EXPECT_EQ(sb.combined(), GlobalSeq(200));
  EXPECT_EQ(sb.blocks_received(), 1u);  // the jump counts no blocks
}

TEST(SyncBufferTest, StartAtAfterAdvanceNeverMovesHeadBackwards) {
  SyncBuffer sb(1);
  sb.advance(j0, BlockCount(11));  // blocks 0..10
  const GlobalSeq combined = sb.combined();
  sb.start_at(j0, SeqNum(5));
  EXPECT_EQ(sb.head(j0), SeqNum(10));
  sb.start_at(j0, SeqNum(11));  // exactly head + 1: still no move
  EXPECT_EQ(sb.head(j0), SeqNum(10));
  EXPECT_EQ(sb.combined(), combined);
  sb.start_at(j0, SeqNum(20));  // a forward jump does move it
  EXPECT_EQ(sb.head(j0), SeqNum(19));
}

TEST(SyncBufferTest, Spread) {
  SyncBuffer sb(3);
  sb.advance(j0, BlockCount(2));
  sb.advance(j1, BlockCount(1));
  // heads: {1, 0, -1} -> spread 2.
  EXPECT_EQ(sb.spread(), BlockCount(2));
}

TEST(SyncBufferTest, RandomizedRunsConvergeToCompletePrefix) {
  // Property: any interleaving of in-order runs that fills [0, N) on every
  // sub-stream ends with heads N-1, N*K blocks received and the complete
  // combined prefix, and the prefix never moves backwards on the way.
  sim::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 1 + static_cast<int>(rng.below(4));
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.below(40));
    SyncBuffer sb(k);
    std::vector<std::int64_t> left(static_cast<std::size_t>(k), n);
    std::int64_t total_left = n * k;
    GlobalSeq last = sb.combined();
    while (total_left > 0) {
      const auto i = static_cast<std::size_t>(rng.below(
          static_cast<std::uint64_t>(k)));
      if (left[i] == 0) continue;
      const std::int64_t run =
          1 + static_cast<std::int64_t>(
                  rng.below(static_cast<std::uint64_t>(left[i])));
      sb.advance(SubstreamId(static_cast<int>(i)), BlockCount(run));
      left[i] -= run;
      total_left -= run;
      ASSERT_GE(sb.combined(), last);
      last = sb.combined();
    }
    for (const SubstreamId i : substreams(k)) {
      ASSERT_EQ(sb.head(i), SeqNum(n - 1));
    }
    ASSERT_EQ(sb.combined(), GlobalSeq(n * k - 1));
    ASSERT_EQ(sb.blocks_received(), static_cast<std::uint64_t>(n * k));
  }
}

}  // namespace
}  // namespace coolstream::core
