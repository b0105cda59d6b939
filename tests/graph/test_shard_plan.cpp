// graph_pack's pack-time shard rule (parse_shard_policy +
// resolve_shard_count), the one place shard geometry is chosen; the
// measurement sweeps whatever plan the container stores.
#include "graph/sharded/plan.hpp"

#include <gtest/gtest.h>

namespace socmix::graph {
namespace {

constexpr std::size_t kBudget = ShardPolicy::kAutoShardBytes;
constexpr NodeId kManyRows = 1'000'000;

ShardPolicy fixed(std::uint32_t count) {
  return ShardPolicy{.mode = ShardPolicy::Mode::kFixed, .count = count};
}

TEST(ShardPolicyRule, OffIsOneShard) {
  const ShardPolicy off{.mode = ShardPolicy::Mode::kOff};
  EXPECT_EQ(resolve_shard_count(off, 100 * kBudget, kManyRows), 1u);
  EXPECT_EQ(resolve_shard_count(off, 100 * kBudget, kManyRows, 3), 1u);
}

TEST(ShardPolicyRule, FixedCountIsClampedToRowsAndMaxShards) {
  EXPECT_EQ(resolve_shard_count(fixed(16), kBudget, kManyRows), 16u);
  EXPECT_EQ(resolve_shard_count(fixed(16), kBudget, 5), 5u);
  EXPECT_EQ(resolve_shard_count(fixed(kMaxShards + 500), kBudget, kManyRows),
            kMaxShards);
}

TEST(ShardPolicyRule, AutoSplitsPastTheBudgetForTwoResidentCopies) {
  const ShardPolicy automatic{};
  EXPECT_EQ(resolve_shard_count(automatic, kBudget, kManyRows, 2), 1u);
  EXPECT_EQ(resolve_shard_count(automatic, kBudget + 1, kManyRows, 2), 2u);
  EXPECT_EQ(resolve_shard_count(automatic, 4 * kBudget, kManyRows, 2), 4u);
}

TEST(ShardPolicyRule, AutoKeepsThreeResidentCopiesInTheTwoCopyEnvelope) {
  // Three copies of a window fit the 2 * budget envelope while the CSR is
  // at most 2/3 of the budget.
  const ShardPolicy automatic{};
  const std::size_t edge = 2 * kBudget / 3;
  EXPECT_EQ(resolve_shard_count(automatic, edge, kManyRows, 3), 1u);
  EXPECT_EQ(resolve_shard_count(automatic, edge + 1, kManyRows, 3), 2u);
  EXPECT_EQ(resolve_shard_count(automatic, kBudget, kManyRows, 3), 2u);
  EXPECT_EQ(resolve_shard_count(automatic, kBudget + 1, kManyRows, 3), 2u);
  EXPECT_EQ(resolve_shard_count(automatic, 4 * kBudget, kManyRows, 3), 6u);
}

TEST(ShardPolicyRule, AutoIsCappedAtMaxShards) {
  EXPECT_EQ(resolve_shard_count(ShardPolicy{}, std::size_t{1} << 50, kManyRows),
            kMaxShards);
}

TEST(ShardPolicyRule, EmptyGraphIsOneShard) {
  EXPECT_EQ(resolve_shard_count(ShardPolicy{}, 100 * kBudget, 0), 1u);
  EXPECT_EQ(resolve_shard_count(fixed(8), kBudget, 0), 1u);
}

TEST(ShardPolicyRule, ParsesAutoOffAndBoundedCounts) {
  EXPECT_EQ(parse_shard_policy("").value().mode, ShardPolicy::Mode::kAuto);
  EXPECT_EQ(parse_shard_policy("auto").value().mode, ShardPolicy::Mode::kAuto);
  EXPECT_EQ(parse_shard_policy("off").value().mode, ShardPolicy::Mode::kOff);
  const auto max = parse_shard_policy("1024");
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->mode, ShardPolicy::Mode::kFixed);
  EXPECT_EQ(max->count, kMaxShards);
  EXPECT_FALSE(parse_shard_policy("0").has_value());
  EXPECT_FALSE(parse_shard_policy("1025").has_value());
  EXPECT_FALSE(parse_shard_policy("abc").has_value());
}

}  // namespace
}  // namespace socmix::graph
