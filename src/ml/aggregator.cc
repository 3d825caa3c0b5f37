#include "ml/aggregator.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace ltee::ml {

void ScoreAggregator::Train(std::vector<Example> examples,
                            AggregationKind kind, util::Rng& rng) {
  kind_ = kind;
  trained_ = true;
  if (examples.empty()) return;
  num_metrics_ = examples.front().features.sims.size();
  examples = BalanceByUpsampling(std::move(examples), rng);

  if (kind == AggregationKind::kWeightedAverage ||
      kind == AggregationKind::kCombined) {
    wa_.Train(examples, rng);
  }
  if (kind == AggregationKind::kRandomForest ||
      kind == AggregationKind::kCombined) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    x.reserve(examples.size());
    y.reserve(examples.size());
    for (const auto& ex : examples) {
      x.push_back(FlattenForForest(ex.features));
      y.push_back(ex.target);
    }
    forest_.TuneBagFraction(x, y, rng);
  }
  if (kind == AggregationKind::kCombined) {
    // Learn the blend weight by a 1-D sweep maximizing pair F1 (equivalent
    // to the GA on a single weight but cheaper and deterministic).
    double best_f1 = -1.0, best_w = 0.5;
    for (int step = 0; step <= 20; ++step) {
      const double w = step / 20.0;
      size_t tp = 0, fp = 0, fn = 0;
      for (const auto& ex : examples) {
        const double s = w * wa_.Score(ex.features) +
                         (1.0 - w) * forest_.Predict(
                                         FlattenForForest(ex.features));
        const bool predicted = s > 0.0;
        const bool actual = ex.target > 0.0;
        if (predicted && actual) ++tp;
        else if (predicted && !actual) ++fp;
        else if (!predicted && actual) ++fn;
      }
      const double p = tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
      const double r = tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
      const double f1 = util::F1(p, r);
      if (f1 > best_f1) {
        best_f1 = f1;
        best_w = w;
      }
    }
    blend_wa_ = best_w;
  }
}

double ScoreAggregator::Score(const ScoredFeatures& f) const {
  switch (kind_) {
    case AggregationKind::kWeightedAverage:
      return wa_.Score(f);
    case AggregationKind::kRandomForest:
      return std::clamp(forest_.Predict(FlattenForForest(f)), -1.0, 1.0);
    case AggregationKind::kCombined:
      return std::clamp(
          blend_wa_ * wa_.Score(f) +
              (1.0 - blend_wa_) * forest_.Predict(FlattenForForest(f)),
          -1.0, 1.0);
  }
  return 0.0;
}

AggregatorParams ScoreAggregator::ExportParams() const {
  AggregatorParams params;
  params.kind = kind_;
  params.num_metrics = static_cast<uint32_t>(num_metrics_);
  params.wa_weights = wa_.weights();
  params.wa_threshold = wa_.threshold();
  params.blend_wa = blend_wa_;
  params.forest = forest_.ExportParams();
  return params;
}

bool ScoreAggregator::ImportParams(AggregatorParams params,
                                   std::string* error) {
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (params.kind != AggregationKind::kWeightedAverage &&
      params.kind != AggregationKind::kRandomForest &&
      params.kind != AggregationKind::kCombined) {
    return fail("unknown aggregation kind");
  }
  const size_t expected_weights =
      params.kind == AggregationKind::kRandomForest ? 0 : params.num_metrics;
  if (params.wa_weights.size() != expected_weights) {
    return fail(
        "weighted-average weight count differs from the metric count");
  }
  // FlattenForForest feeds a trained forest every metric's sim and conf;
  // an untrained one has no features (MetricImportances reads one
  // importance per sim and conf).
  if (params.forest.num_features != 0 &&
      params.forest.num_features !=
          2 * static_cast<uint64_t>(params.num_metrics)) {
    return fail("forest feature count is not two per metric");
  }
  RandomForestRegressor forest;
  if (!forest.ImportParams(std::move(params.forest), error)) return false;
  kind_ = params.kind;
  num_metrics_ = params.num_metrics;
  wa_ = WeightedAverageModel(std::move(params.wa_weights),
                             params.wa_threshold);
  blend_wa_ = params.blend_wa;
  forest_ = std::move(forest);
  trained_ = true;
  return true;
}

std::vector<double> ScoreAggregator::MetricImportances() const {
  std::vector<double> out(num_metrics_, 0.0);
  if (num_metrics_ == 0) return out;

  std::vector<double> forest_imp(num_metrics_, 0.0);
  const auto& raw = forest_.FeatureImportances();
  if (!raw.empty()) {
    // Forest features are [sims..., confs...]; pool both per metric.
    for (size_t m = 0; m < num_metrics_; ++m) {
      forest_imp[m] += raw[m];
      if (num_metrics_ + m < raw.size()) forest_imp[m] += raw[num_metrics_ + m];
    }
    double s = 0.0;
    for (double v : forest_imp) s += v;
    if (s > 0.0) {
      for (double& v : forest_imp) v /= s;
    }
  }
  const auto wa_weights = wa_.NormalizedWeights();

  for (size_t m = 0; m < num_metrics_; ++m) {
    double f = forest_imp[m];
    double w = m < wa_weights.size() ? wa_weights[m] : 0.0;
    switch (kind_) {
      case AggregationKind::kWeightedAverage:
        out[m] = w;
        break;
      case AggregationKind::kRandomForest:
        out[m] = f;
        break;
      case AggregationKind::kCombined:
        out[m] = 0.5 * (f + w);
        break;
    }
  }
  return out;
}

}  // namespace ltee::ml
