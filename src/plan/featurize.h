#ifndef LIMEQO_PLAN_FEATURIZE_H_
#define LIMEQO_PLAN_FEATURIZE_H_

#include <vector>

#include "plan/plan_node.h"

namespace limeqo::plan {

/// Per-node feature vector width: one-hot operator encoding plus
/// log1p(cost) and log1p(cardinality), as in Bao (paper Sec. 4.3.2).
inline constexpr int kNodeFeatureDim = kNumOperators + 2;

/// Encodes one plan node into its kNodeFeatureDim-length feature vector.
std::vector<double> FeaturizeNode(const PlanNode& node);

/// A plan tree flattened into arrays for efficient tree convolution.
///
/// Nodes are stored in preorder. `left_child[i]` / `right_child[i]` give the
/// indices of node i's children, or -1 for absent children (leaves). Tree
/// convolution treats missing children as zero vectors, matching the
/// "binarize then convolve" construction of Bao/Neo.
struct FlatPlan {
  /// Row-major num_nodes x kNodeFeatureDim: node i's features start at
  /// features[i * kNodeFeatureDim].
  std::vector<double> features;
  std::vector<int> left_child;
  std::vector<int> right_child;

  int num_nodes() const { return static_cast<int>(left_child.size()); }
};

/// Flattens a plan tree into a FlatPlan (preorder, root at index 0).
FlatPlan FlattenPlan(const PlanNode& root);

}  // namespace limeqo::plan

#endif  // LIMEQO_PLAN_FEATURIZE_H_
