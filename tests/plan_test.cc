#include <cmath>

#include <gtest/gtest.h>

#include "plan/featurize.h"
#include "plan/plan_node.h"

namespace limeqo::plan {
namespace {

std::unique_ptr<PlanNode> SmallJoinPlan() {
  auto l = PlanNode::MakeScan(Operator::kSeqScan, 0, 100.0, 50.0);
  auto r = PlanNode::MakeScan(Operator::kIndexScan, 1, 20.0, 5.0);
  return PlanNode::MakeJoin(Operator::kHashJoin, std::move(l), std::move(r),
                            200.0, 40.0);
}

TEST(PlanNodeTest, OperatorPredicates) {
  EXPECT_TRUE(IsScan(Operator::kSeqScan));
  EXPECT_TRUE(IsScan(Operator::kIndexOnlyScan));
  EXPECT_FALSE(IsScan(Operator::kHashJoin));
  EXPECT_TRUE(IsJoin(Operator::kMergeJoin));
  EXPECT_FALSE(IsJoin(Operator::kIndexScan));
}

TEST(PlanNodeTest, OperatorNamesDistinct) {
  EXPECT_STREQ(OperatorName(Operator::kNestedLoopJoin), "NestedLoopJoin");
  EXPECT_STRNE(OperatorName(Operator::kSeqScan),
               OperatorName(Operator::kIndexScan));
}

TEST(PlanNodeTest, StructureAccessors) {
  auto plan = SmallJoinPlan();
  EXPECT_EQ(plan->NumNodes(), 3);
  EXPECT_EQ(plan->Height(), 2);
  EXPECT_EQ(plan->ToString(), "HashJoin(SeqScan(t0), IndexScan(t1))");
}

TEST(PlanNodeTest, CloneIsDeepAndEqual) {
  auto plan = SmallJoinPlan();
  auto copy = plan->Clone();
  EXPECT_TRUE(plan->Equals(*copy));
  copy->left->est_cost = 999.0;
  EXPECT_FALSE(plan->Equals(*copy));
  EXPECT_DOUBLE_EQ(plan->left->est_cost, 100.0);  // original untouched
}

TEST(PlanNodeTest, ValidateAcceptsWellFormed) {
  auto plan = SmallJoinPlan();
  EXPECT_TRUE(ValidatePlan(*plan).ok());
}

TEST(PlanNodeTest, ValidateRejectsScanWithChild) {
  auto plan = SmallJoinPlan();
  plan->op = Operator::kSeqScan;
  plan->table_id = 0;
  EXPECT_FALSE(ValidatePlan(*plan).ok());
}

TEST(PlanNodeTest, ValidateRejectsNegativeEstimates) {
  auto plan = SmallJoinPlan();
  plan->est_cost = -1.0;
  EXPECT_FALSE(ValidatePlan(*plan).ok());
}

TEST(FeaturizeTest, NodeFeatureLayout) {
  auto scan = PlanNode::MakeScan(Operator::kIndexScan, 3, 10.0, 4.0);
  std::vector<double> f = FeaturizeNode(*scan);
  ASSERT_EQ(static_cast<int>(f.size()), kNodeFeatureDim);
  // One-hot at the operator position, zero elsewhere.
  for (int op = 0; op < kNumOperators; ++op) {
    EXPECT_DOUBLE_EQ(f[op],
                     op == static_cast<int>(Operator::kIndexScan) ? 1.0 : 0.0);
  }
  EXPECT_DOUBLE_EQ(f[kNumOperators], std::log1p(10.0));
  EXPECT_DOUBLE_EQ(f[kNumOperators + 1], std::log1p(4.0));
}

TEST(FeaturizeTest, FlattenPreservesStructure) {
  auto plan = SmallJoinPlan();
  FlatPlan flat = FlattenPlan(*plan);
  ASSERT_EQ(flat.num_nodes(), 3);
  // Preorder: root at 0, left subtree, right subtree.
  EXPECT_EQ(flat.left_child[0], 1);
  EXPECT_EQ(flat.right_child[0], 2);
  EXPECT_EQ(flat.left_child[1], -1);
  EXPECT_EQ(flat.right_child[1], -1);
  // Root features match the join one-hot.
  ASSERT_EQ(flat.features.size(), 3u * kNodeFeatureDim);
  EXPECT_DOUBLE_EQ(flat.features[static_cast<int>(Operator::kHashJoin)], 1.0);
}

TEST(FeaturizeTest, FlattenDeepTree) {
  // Left-deep chain of 4 joins over 5 scans: 9 nodes.
  auto current = PlanNode::MakeScan(Operator::kSeqScan, 0, 1, 1);
  for (int i = 1; i <= 4; ++i) {
    auto rhs = PlanNode::MakeScan(Operator::kSeqScan, i, 1, 1);
    current = PlanNode::MakeJoin(Operator::kNestedLoopJoin,
                                 std::move(current), std::move(rhs), 1, 1);
  }
  FlatPlan flat = FlattenPlan(*current);
  EXPECT_EQ(flat.num_nodes(), 9);
  // Every node index referenced as a child is in range.
  for (int i = 0; i < flat.num_nodes(); ++i) {
    EXPECT_LT(flat.left_child[i], flat.num_nodes());
    EXPECT_LT(flat.right_child[i], flat.num_nodes());
  }
}

}  // namespace
}  // namespace limeqo::plan
