#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace ltee::ml {

namespace {

double MeanOf(const std::vector<double>& y, const std::vector<int>& idx,
              int begin, int end) {
  double s = 0.0;
  for (int i = begin; i < end; ++i) s += y[idx[i]];
  return s / static_cast<double>(end - begin);
}

double Sse(const std::vector<double>& y, const std::vector<int>& idx,
           int begin, int end, double mean) {
  double s = 0.0;
  for (int i = begin; i < end; ++i) {
    double d = y[idx[i]] - mean;
    s += d * d;
  }
  return s;
}

}  // namespace

double RandomForestRegressor::Tree::PredictOne(
    const std::vector<double>& x) const {
  int32_t node = 0;
  for (;;) {
    const Node& n = nodes[node];
    if (n.feature < 0) return n.value;
    node = x[n.feature] <= n.threshold ? n.left : n.right;
  }
}

int32_t RandomForestRegressor::BuildNode(
    Tree& tree, const std::vector<std::vector<double>>& x,
    const std::vector<double>& y, std::vector<int>& indices, int begin,
    int end, int depth, util::Rng& rng) {
  const int32_t node_id = static_cast<int32_t>(tree.nodes.size());
  tree.nodes.emplace_back();
  const int count = end - begin;
  const double mean = MeanOf(y, indices, begin, end);
  const double node_sse = Sse(y, indices, begin, end, mean);

  bool make_leaf = depth >= options_.max_depth ||
                   count < 2 * options_.min_samples_leaf || node_sse <= 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0, best_gain = 0.0;
  int best_split_pos = -1;

  if (!make_leaf) {
    int mtry = options_.feature_fraction > 0.0
                   ? std::max(1, static_cast<int>(std::round(
                                     options_.feature_fraction *
                                     static_cast<double>(num_features_))))
                   : std::max(1, static_cast<int>(std::sqrt(
                                     static_cast<double>(num_features_))));
    std::vector<int> feature_order(num_features_);
    std::iota(feature_order.begin(), feature_order.end(), 0);
    rng.Shuffle(&feature_order);
    feature_order.resize(std::min<size_t>(feature_order.size(),
                                          static_cast<size_t>(mtry)));

    std::vector<int> work(indices.begin() + begin, indices.begin() + end);
    for (int f : feature_order) {
      std::sort(work.begin(), work.end(),
                [&](int a, int b) { return x[a][f] < x[b][f]; });
      // Prefix sums for O(n) threshold scan.
      double left_sum = 0.0, left_sq = 0.0;
      double total_sum = 0.0, total_sq = 0.0;
      for (int i : work) {
        total_sum += y[i];
        total_sq += y[i] * y[i];
      }
      for (int pos = 1; pos < count; ++pos) {
        const int i = work[pos - 1];
        left_sum += y[i];
        left_sq += y[i] * y[i];
        if (x[work[pos - 1]][f] == x[work[pos]][f]) continue;  // tied values
        const int nl = pos, nr = count - pos;
        if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf) {
          continue;
        }
        const double right_sum = total_sum - left_sum;
        const double right_sq = total_sq - left_sq;
        const double sse_l = left_sq - left_sum * left_sum / nl;
        const double sse_r = right_sq - right_sum * right_sum / nr;
        const double gain = node_sse - (sse_l + sse_r);
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (x[work[pos - 1]][f] + x[work[pos]][f]);
          best_split_pos = pos;
        }
      }
    }
    if (best_feature < 0) make_leaf = true;
  }

  if (make_leaf) {
    tree.nodes[node_id].feature = -1;
    tree.nodes[node_id].value = mean;
    return node_id;
  }
  (void)best_split_pos;

  importances_[best_feature] += best_gain;
  // Partition indices[begin, end) by the chosen split.
  int mid = begin;
  for (int i = begin; i < end; ++i) {
    if (x[indices[i]][best_feature] <= best_threshold) {
      std::swap(indices[i], indices[mid]);
      ++mid;
    }
  }
  tree.nodes[node_id].feature = best_feature;
  tree.nodes[node_id].threshold = best_threshold;
  const int32_t left =
      BuildNode(tree, x, y, indices, begin, mid, depth + 1, rng);
  const int32_t right = BuildNode(tree, x, y, indices, mid, end, depth + 1, rng);
  tree.nodes[node_id].left = left;
  tree.nodes[node_id].right = right;
  return node_id;
}

void RandomForestRegressor::Train(
    const std::vector<std::vector<double>>& features,
    const std::vector<double>& targets, util::Rng& rng) {
  trees_.clear();
  const size_t n = features.size();
  if (n == 0) return;
  num_features_ = features.front().size();
  importances_.assign(num_features_, 0.0);

  const int bag_size = std::max(
      1, static_cast<int>(std::round(options_.bag_fraction *
                                     static_cast<double>(n))));
  std::vector<double> oob_sum(n, 0.0);
  std::vector<int> oob_count(n, 0);

  for (int t = 0; t < options_.num_trees; ++t) {
    std::vector<char> in_bag(n, 0);
    std::vector<int> sample;
    sample.reserve(bag_size);
    for (int i = 0; i < bag_size; ++i) {
      size_t pick = rng.NextBounded(n);
      sample.push_back(static_cast<int>(pick));
      in_bag[pick] = 1;
    }
    Tree tree;
    BuildNode(tree, features, targets, sample, 0,
              static_cast<int>(sample.size()), 0, rng);
    for (size_t i = 0; i < n; ++i) {
      if (!in_bag[i]) {
        oob_sum[i] += tree.PredictOne(features[i]);
        oob_count[i] += 1;
      }
    }
    trees_.push_back(std::move(tree));
  }

  double err = 0.0;
  int counted = 0;
  for (size_t i = 0; i < n; ++i) {
    if (oob_count[i] == 0) continue;
    double pred = oob_sum[i] / oob_count[i];
    double d = pred - targets[i];
    err += d * d;
    ++counted;
  }
  oob_error_ = counted == 0 ? 0.0 : err / counted;

  double total_importance = 0.0;
  for (double imp : importances_) total_importance += imp;
  if (total_importance > 0.0) {
    for (double& imp : importances_) imp /= total_importance;
  }
}

double RandomForestRegressor::Predict(const std::vector<double>& x) const {
  if (trees_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& tree : trees_) s += tree.PredictOne(x);
  return s / static_cast<double>(trees_.size());
}

ForestParams RandomForestRegressor::ExportParams() const {
  ForestParams params;
  params.options = options_;
  params.num_features = static_cast<uint32_t>(num_features_);
  for (const Tree& tree : trees_) {
    params.tree_sizes.push_back(static_cast<uint32_t>(tree.nodes.size()));
    params.nodes.insert(params.nodes.end(), tree.nodes.begin(),
                        tree.nodes.end());
  }
  params.importances = importances_;
  params.oob_error = oob_error_;
  return params;
}

bool RandomForestRegressor::ImportParams(ForestParams params,
                                         std::string* error) {
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (params.importances.size() != params.num_features) {
    return fail("forest importances do not match its feature count");
  }
  const int num_features = static_cast<int>(params.num_features);
  std::vector<Tree> trees;
  trees.reserve(params.tree_sizes.size());
  size_t begin = 0;
  for (uint32_t size : params.tree_sizes) {
    if (size == 0 || params.nodes.size() - begin < size) {
      return fail("forest tree sizes do not match its node count");
    }
    Tree tree;
    tree.nodes.assign(params.nodes.begin() + begin,
                      params.nodes.begin() + begin + size);
    for (int32_t i = 0; i < static_cast<int32_t>(size); ++i) {
      const Node& node = tree.nodes[i];
      if (node.feature < -1 || node.feature >= num_features) {
        return fail("forest split feature out of range");
      }
      if (node.feature >= 0 &&
          (node.left <= i || node.right <= i ||
           node.left >= static_cast<int32_t>(size) ||
           node.right >= static_cast<int32_t>(size))) {
        return fail("forest child index out of range");
      }
    }
    trees.push_back(std::move(tree));
    begin += size;
  }
  if (begin != params.nodes.size()) {
    return fail("forest tree sizes do not match its node count");
  }
  options_ = params.options;
  trees_ = std::move(trees);
  importances_ = std::move(params.importances);
  oob_error_ = params.oob_error;
  num_features_ = params.num_features;
  return true;
}

double RandomForestRegressor::TuneBagFraction(
    const std::vector<std::vector<double>>& features,
    const std::vector<double>& targets, util::Rng& rng,
    const std::vector<double>& candidates) {
  double best_fraction = options_.bag_fraction;
  double best_error = std::numeric_limits<double>::infinity();
  for (double frac : candidates) {
    RandomForestOptions opts = options_;
    opts.bag_fraction = frac;
    RandomForestRegressor candidate(opts);
    util::Rng fork = rng.Fork();
    candidate.Train(features, targets, fork);
    if (candidate.OobError() < best_error) {
      best_error = candidate.OobError();
      best_fraction = frac;
      *this = std::move(candidate);
    }
  }
  return best_fraction;
}

}  // namespace ltee::ml
