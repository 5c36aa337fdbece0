#include "plan/featurize.h"

#include <cmath>

namespace limeqo::plan {

std::vector<double> FeaturizeNode(const PlanNode& node) {
  std::vector<double> f(kNodeFeatureDim, 0.0);
  f[static_cast<int>(node.op)] = 1.0;
  f[kNumOperators] = std::log1p(node.est_cost);
  f[kNumOperators + 1] = std::log1p(node.est_cardinality);
  return f;
}

namespace {

int FlattenRec(const PlanNode& node, FlatPlan* out) {
  const int idx = out->num_nodes();
  const std::vector<double> f = FeaturizeNode(node);
  out->features.insert(out->features.end(), f.begin(), f.end());
  out->left_child.push_back(-1);
  out->right_child.push_back(-1);
  if (node.left) out->left_child[idx] = FlattenRec(*node.left, out);
  if (node.right) out->right_child[idx] = FlattenRec(*node.right, out);
  return idx;
}

}  // namespace

FlatPlan FlattenPlan(const PlanNode& root) {
  FlatPlan flat;
  FlattenRec(root, &flat);
  return flat;
}

}  // namespace limeqo::plan
