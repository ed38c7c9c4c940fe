#include "sim/shard_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/rng.h"

namespace coolstream::sim {
namespace {

TEST(ShardRunnerTest, RunsEveryShardOncePerPhase) {
  ShardRunner runner(4);
  EXPECT_EQ(runner.shard_count(), 4u);
  std::vector<int> hits(4, 0);  // plain ints: one writer each
  for (int phase = 0; phase < 3; ++phase) {
    runner.run([&hits](std::size_t s) { ++hits[s]; });
  }
  for (const int h : hits) EXPECT_EQ(h, 3);
}

TEST(ShardRunnerTest, OneShardRunsInlineOnTheCaller) {
  ShardRunner runner(1);
  std::thread::id ran_on;
  runner.run([&ran_on](std::size_t s) {
    EXPECT_EQ(s, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ShardRunnerTest, ShardsStayOnTheirThreads) {
  ShardRunner runner(3);
  std::vector<std::thread::id> first(3);
  runner.run(
      [&first](std::size_t s) { first[s] = std::this_thread::get_id(); });
  EXPECT_EQ(first[0], std::this_thread::get_id());
  EXPECT_NE(first[1], first[0]);
  EXPECT_NE(first[2], first[1]);
  for (int phase = 0; phase < 50; ++phase) {
    runner.run([&first](std::size_t s) {
      EXPECT_EQ(std::this_thread::get_id(), first[s]) << "shard " << s;
    });
  }
}

TEST(ShardRunnerTest, WorkerExceptionIsRethrownOnTheCaller) {
  ShardRunner runner(3);
  std::vector<int> completed(3, 0);
  EXPECT_THROW(runner.run([&completed](std::size_t s) {
                 if (s == 2) throw std::runtime_error("shard failed");
                 ++completed[s];
               }),
               std::runtime_error);
  // The failure did not stop the other shards, and it is consumed: the
  // runner is reusable and the next phase is clean.
  EXPECT_EQ(completed[0], 1);
  EXPECT_EQ(completed[1], 1);
  runner.run([&completed](std::size_t s) { ++completed[s]; });
  EXPECT_EQ(completed[0], 2);
  EXPECT_EQ(completed[1], 2);
  EXPECT_EQ(completed[2], 1);
}

TEST(ShardRunnerTest, FirstOfSeveralExceptionsWins) {
  // "First" is the lowest failing shard, whatever order they failed in.
  ShardRunner runner(4);
  const auto throw_from = [&runner](std::vector<bool> fails) {
    std::string what;
    try {
      runner.run([&fails](std::size_t s) {
        if (fails[s]) throw std::runtime_error("shard " + std::to_string(s));
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    return what;
  };
  EXPECT_EQ(throw_from({false, true, true, true}), "shard 1");
  EXPECT_EQ(throw_from({true, false, false, true}), "shard 0");
  EXPECT_EQ(throw_from({false, false, false, true}), "shard 3");
  EXPECT_EQ(throw_from({false, false, false, false}), "");
}

TEST(ShardRunnerTest, ResultsMatchSerial) {
  // Sharded work must give identical results to the serial loop.
  ShardRunner runner(4);
  std::vector<std::uint64_t> sharded(64);
  runner.run([&sharded](std::size_t s) {
    for (std::size_t i = s; i < sharded.size(); i += 4) {
      std::uint64_t state = 1000 + i;
      sharded[i] = splitmix64_next(state);
    }
  });
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    std::uint64_t state = 1000 + i;
    ASSERT_EQ(sharded[i], splitmix64_next(state));
  }
}

}  // namespace
}  // namespace coolstream::sim
