// ShardRunner barrier stress: thousands of back-to-back phases, more
// shards than cores, the park/wake path, and the exception path in every
// round.  Each phase reads what other shards wrote in the previous one
// through plain (non-atomic) memory, so the assertions check the barrier's
// ordering and TSan — tools/run_sanitized_tests.sh SAN=thread --quick runs
// this suite — checks its happens-before edges.
#include "sim/shard_runner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace coolstream::sim {
namespace {

/// Runs `phases` phases on `runner`.  In phase i every shard checks that
/// every other shard wrote i - 1 in the previous phase, then writes i —
/// into the other half of a double buffer, so no phase reads a slot that
/// the same phase writes.
void run_chained_phases(ShardRunner& runner, std::uint32_t phases) {
  const std::size_t n = runner.shard_count();
  std::vector<std::uint32_t> slots[2] = {std::vector<std::uint32_t>(n, 0),
                                         std::vector<std::uint32_t>(n, 0)};
  std::vector<std::uint32_t> mismatches(n, 0);
  for (std::uint32_t i = 1; i <= phases; ++i) {
    runner.run([&slots, &mismatches, i, n](std::size_t s) {
      const std::vector<std::uint32_t>& prev = slots[(i - 1) % 2];
      for (std::size_t o = 0; o < n; ++o) {
        if (prev[o] != i - 1) ++mismatches[s];
      }
      slots[i % 2][s] = i;
    });
  }
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_EQ(slots[phases % 2][s], phases);
    EXPECT_EQ(mismatches[s], 0u) << "shard " << s;
  }
}

TEST(ShardRunnerStressTest, ThousandsOfPhases) {
  ShardRunner runner(4);
  run_chained_phases(runner, 5000);
}

TEST(ShardRunnerStressTest, EightShardsOnFourCores) {
  ShardRunner runner(8);
  run_chained_phases(runner, 2000);
}

TEST(ShardRunnerStressTest, WorkersParkAndWakeBetweenPhases) {
  // Gaps far longer than the spin bound: every phase start wakes parked
  // workers and every barrier may park the caller.
  ShardRunner runner(4);
  std::vector<std::uint32_t> count(4, 0);
  for (int phase = 0; phase < 40; ++phase) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    runner.run([&count](std::size_t s) {
      if (s == 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++count[s];
    });
  }
  for (const std::uint32_t c : count) EXPECT_EQ(c, 40u);
}

TEST(ShardRunnerStressTest, ExceptionRethrowEveryRound) {
  ShardRunner runner(4);
  std::vector<std::uint32_t> ran(4, 0);
  constexpr std::uint32_t kRounds = 500;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    const std::size_t failing = round % 4;
    EXPECT_THROW(runner.run([&ran, failing](std::size_t s) {
                   ++ran[s];
                   if (s == failing) throw std::runtime_error("stress failure");
                 }),
                 std::runtime_error);
  }
  for (const std::uint32_t r : ran) EXPECT_EQ(r, kRounds);
  runner.run([](std::size_t) {});  // clean after the last failure
}

}  // namespace
}  // namespace coolstream::sim
