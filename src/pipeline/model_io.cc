#include "pipeline/model_io.h"

#include <algorithm>
#include <string_view>

#include "util/binary_codec.h"

namespace ltee::pipeline {

namespace {

constexpr std::string_view kMagic("LTEEMDL1", 8);
constexpr uint32_t kFormatVersion = 1;

using util::ByteReader;
using util::PutDoubles;
using util::PutPod;

void PutMatcher(std::string* out, const matching::SchemaMatcherParams& m) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(m.weights.size()));
  for (const auto& [cls, weights] : m.weights) {
    PutPod<int16_t>(out, cls);
    for (double w : weights) PutPod<double>(out, w);
  }
  PutPod<uint32_t>(out, static_cast<uint32_t>(m.thresholds.size()));
  for (const auto& [property, threshold] : m.thresholds) {
    PutPod<int16_t>(out, property);
    PutPod<double>(out, threshold);
  }
}

void PutAggregator(std::string* out, const ml::AggregatorParams& a) {
  PutPod<uint8_t>(out, static_cast<uint8_t>(a.kind));
  PutPod<uint32_t>(out, a.num_metrics);
  PutDoubles(out, a.wa_weights);
  PutPod<double>(out, a.wa_threshold);
  PutPod<double>(out, a.blend_wa);
  const ml::ForestParams& f = a.forest;
  PutPod<int32_t>(out, f.options.num_trees);
  PutPod<int32_t>(out, f.options.max_depth);
  PutPod<int32_t>(out, f.options.min_samples_leaf);
  PutPod<double>(out, f.options.feature_fraction);
  PutPod<double>(out, f.options.bag_fraction);
  PutPod<uint32_t>(out, f.num_features);
  PutPod<uint32_t>(out, static_cast<uint32_t>(f.tree_sizes.size()));
  for (uint32_t size : f.tree_sizes) PutPod<uint32_t>(out, size);
  PutPod<uint32_t>(out, static_cast<uint32_t>(f.nodes.size()));
  for (const ml::ForestNode& node : f.nodes) {
    PutPod<int32_t>(out, node.feature);
    PutPod<double>(out, node.threshold);
    PutPod<double>(out, node.value);
    PutPod<int32_t>(out, node.left);
    PutPod<int32_t>(out, node.right);
  }
  PutDoubles(out, f.importances);
  PutPod<double>(out, f.oob_error);
}

void GetMatcher(ByteReader* r, matching::SchemaMatcherParams* m) {
  const uint32_t num_weights =
      r->Count(sizeof(int16_t) + matching::kNumMatchers * sizeof(double));
  for (uint32_t i = 0; r->ok() && i < num_weights; ++i) {
    const kb::ClassId cls = r->Pod<int16_t>();
    std::array<double, matching::kNumMatchers> weights;
    for (double& w : weights) w = r->Pod<double>();
    if (!m->weights.empty() && cls <= m->weights.back().first) {
      r->Fail("matcher weights not sorted by class id");
    }
    m->weights.emplace_back(cls, weights);
  }
  const uint32_t num_thresholds = r->Count(sizeof(int16_t) + sizeof(double));
  for (uint32_t i = 0; r->ok() && i < num_thresholds; ++i) {
    const kb::PropertyId property = r->Pod<int16_t>();
    const double threshold = r->Pod<double>();
    if (!m->thresholds.empty() && property <= m->thresholds.back().first) {
      r->Fail("matcher thresholds not sorted by property id");
    }
    m->thresholds.emplace_back(property, threshold);
  }
}

void GetAggregator(ByteReader* r, ml::AggregatorParams* a) {
  const uint8_t kind = r->Pod<uint8_t>();
  if (kind > static_cast<uint8_t>(ml::AggregationKind::kCombined)) {
    r->Fail("unknown aggregation kind");
  }
  a->kind = static_cast<ml::AggregationKind>(kind);
  a->num_metrics = r->Pod<uint32_t>();
  a->wa_weights = r->Doubles();
  a->wa_threshold = r->Pod<double>();
  a->blend_wa = r->Pod<double>();
  ml::ForestParams& f = a->forest;
  f.options.num_trees = r->Pod<int32_t>();
  f.options.max_depth = r->Pod<int32_t>();
  f.options.min_samples_leaf = r->Pod<int32_t>();
  f.options.feature_fraction = r->Pod<double>();
  f.options.bag_fraction = r->Pod<double>();
  f.num_features = r->Pod<uint32_t>();
  const uint32_t num_trees = r->Count(sizeof(uint32_t));
  for (uint32_t t = 0; r->ok() && t < num_trees; ++t) {
    f.tree_sizes.push_back(r->Pod<uint32_t>());
  }
  constexpr size_t kNodeBytes = 3 * sizeof(int32_t) + 2 * sizeof(double);
  const uint32_t num_nodes = r->Count(kNodeBytes);
  f.nodes.reserve(num_nodes);
  for (uint32_t n = 0; r->ok() && n < num_nodes; ++n) {
    ml::ForestNode node;
    node.feature = r->Pod<int32_t>();
    node.threshold = r->Pod<double>();
    node.value = r->Pod<double>();
    node.left = r->Pod<int32_t>();
    node.right = r->Pod<int32_t>();
    f.nodes.push_back(node);
  }
  f.importances = r->Doubles();
  f.oob_error = r->Pod<double>();
}

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

size_t CountEnabled(const std::vector<bool>& mask) {
  return static_cast<size_t>(std::count(mask.begin(), mask.end(), true));
}

bool CheckMatcherIds(const matching::SchemaMatcherParams& m,
                     const kb::KnowledgeBase& kb, std::string* error) {
  for (const auto& entry : m.weights) {
    if (entry.first < 0 ||
        static_cast<size_t>(entry.first) >= kb.num_classes()) {
      return Fail(error, "matcher weight class id " +
                             std::to_string(entry.first) + " outside the KB");
    }
  }
  for (const auto& entry : m.thresholds) {
    if (entry.first < 0 ||
        static_cast<size_t>(entry.first) >= kb.num_properties()) {
      return Fail(error, "matcher threshold property id " +
                             std::to_string(entry.first) + " outside the KB");
    }
  }
  return true;
}

/// Imports one aggregator, requiring it to score `enabled` metrics (or
/// none: a class whose training saw no pairs).
bool ImportAggregator(ml::AggregatorParams params, size_t enabled,
                      const std::string& what, ml::ScoreAggregator* out,
                      std::string* error) {
  if (params.num_metrics != 0 && params.num_metrics != enabled) {
    return Fail(error, what + ": " + std::to_string(params.num_metrics) +
                           " metrics, the pipeline enables " +
                           std::to_string(enabled));
  }
  std::string import_error;
  if (!out->ImportParams(std::move(params), &import_error)) {
    return Fail(error, what + ": " + import_error);
  }
  return true;
}

}  // namespace

PipelineModel ExportPipelineModel(const LteePipeline& pipe,
                                  const std::vector<kb::ClassId>& classes) {
  PipelineModel model;
  model.schema_first = pipe.schema_matcher_first().ExportParams();
  model.schema_refined = pipe.schema_matcher_refined().ExportParams();
  for (kb::ClassId cls : classes) {
    const rowcluster::RowClusterer& clusterer = pipe.clusterer_for(cls);
    const newdetect::NewDetector& detector = pipe.detector_for(cls);
    PipelineModel::ClassModel cm;
    cm.cls = cls;
    cm.clusterer = clusterer.aggregator().ExportParams();
    cm.score_offset = clusterer.score_offset();
    cm.detector = detector.aggregator().ExportParams();
    cm.new_threshold = detector.new_threshold();
    cm.match_threshold = detector.match_threshold();
    model.classes.push_back(std::move(cm));
  }
  return model;
}

bool ImportPipelineModel(PipelineModel model, LteePipeline* pipe,
                         std::string* error) {
  const kb::KnowledgeBase& kb = pipe->knowledge_base();
  if (!CheckMatcherIds(model.schema_first, kb, error) ||
      !CheckMatcherIds(model.schema_refined, kb, error)) {
    return false;
  }
  const size_t row_metrics =
      CountEnabled(pipe->options().clustering.enabled_metrics);
  const size_t entity_metrics =
      CountEnabled(pipe->options().detection.enabled_metrics);
  // Validate every class before touching the pipeline.
  std::vector<ml::ScoreAggregator> clusterers(model.classes.size());
  std::vector<ml::ScoreAggregator> detectors(model.classes.size());
  for (size_t i = 0; i < model.classes.size(); ++i) {
    PipelineModel::ClassModel& cm = model.classes[i];
    if (cm.cls < 0 || static_cast<size_t>(cm.cls) >= kb.num_classes()) {
      return Fail(error, "class id " + std::to_string(cm.cls) +
                             " outside the KB");
    }
    const std::string& name = kb.cls(cm.cls).name;
    if (!ImportAggregator(std::move(cm.clusterer), row_metrics,
                          name + " row clusterer", &clusterers[i], error) ||
        !ImportAggregator(std::move(cm.detector), entity_metrics,
                          name + " new detector", &detectors[i], error)) {
      return false;
    }
  }
  pipe->schema_matcher_first().ImportParams(model.schema_first);
  pipe->schema_matcher_refined().ImportParams(model.schema_refined);
  for (size_t i = 0; i < model.classes.size(); ++i) {
    const PipelineModel::ClassModel& cm = model.classes[i];
    rowcluster::RowClusterer& clusterer = pipe->clusterer_for(cm.cls);
    *clusterer.mutable_aggregator() = std::move(clusterers[i]);
    clusterer.set_score_offset(cm.score_offset);
    newdetect::NewDetector& detector = pipe->detector_for(cm.cls);
    *detector.mutable_aggregator() = std::move(detectors[i]);
    detector.set_thresholds(cm.new_threshold, cm.match_threshold);
  }
  return true;
}

std::string EncodePipelineModel(const PipelineModel& model) {
  std::string payload;
  PutMatcher(&payload, model.schema_first);
  PutMatcher(&payload, model.schema_refined);
  PutPod<uint32_t>(&payload, static_cast<uint32_t>(model.classes.size()));
  for (const PipelineModel::ClassModel& cm : model.classes) {
    PutPod<int16_t>(&payload, cm.cls);
    PutAggregator(&payload, cm.clusterer);
    PutPod<double>(&payload, cm.score_offset);
    PutAggregator(&payload, cm.detector);
    PutPod<double>(&payload, cm.new_threshold);
    PutPod<double>(&payload, cm.match_threshold);
  }
  return util::SealFrame(kMagic, kFormatVersion, {}, payload);
}

bool DecodePipelineModel(const std::string& bytes, PipelineModel* model,
                         std::string* error) {
  std::string payload;
  if (!util::OpenFrame(bytes, kMagic, kFormatVersion, "model", {}, &payload,
                       error)) {
    return false;
  }
  *model = PipelineModel();
  ByteReader r(payload, error);
  GetMatcher(&r, &model->schema_first);
  GetMatcher(&r, &model->schema_refined);
  const uint32_t num_classes = r.Count(sizeof(int16_t));
  for (uint32_t c = 0; r.ok() && c < num_classes; ++c) {
    PipelineModel::ClassModel cm;
    cm.cls = r.Pod<int16_t>();
    GetAggregator(&r, &cm.clusterer);
    cm.score_offset = r.Pod<double>();
    GetAggregator(&r, &cm.detector);
    cm.new_threshold = r.Pod<double>();
    cm.match_threshold = r.Pod<double>();
    model->classes.push_back(std::move(cm));
  }
  if (r.ok() && !r.AtEnd()) r.Fail("trailing bytes after model payload");
  return r.ok();
}

bool SavePipelineModel(const LteePipeline& pipe,
                       const std::vector<kb::ClassId>& classes,
                       const std::string& path, std::string* error) {
  return util::WriteFileAtomic(
      path, EncodePipelineModel(ExportPipelineModel(pipe, classes)), error);
}

bool LoadPipelineModel(const std::string& path,
                       const std::vector<kb::ClassId>& classes,
                       LteePipeline* pipe, std::string* error) {
  std::string bytes, model_error;
  if (!util::ReadFileBytes(path, &bytes, error)) return false;
  PipelineModel model;
  bool ok = DecodePipelineModel(bytes, &model, &model_error);
  if (ok) {
    std::vector<kb::ClassId> model_classes;
    for (const auto& cm : model.classes) model_classes.push_back(cm.cls);
    if (model_classes != classes) {
      ok = Fail(&model_error,
                "class list differs from the run's (model has " +
                    std::to_string(model_classes.size()) + " classes, run " +
                    std::to_string(classes.size()) + ")");
    }
  }
  ok = ok && ImportPipelineModel(std::move(model), pipe, &model_error);
  if (!ok && error != nullptr) *error = path + ": " + model_error;
  return ok;
}

}  // namespace ltee::pipeline
