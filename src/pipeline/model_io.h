#ifndef LTEE_PIPELINE_MODEL_IO_H_
#define LTEE_PIPELINE_MODEL_IO_H_

#include <string>
#include <vector>

#include "kb/knowledge_base.h"
#include "matching/schema_matcher.h"
#include "ml/aggregator.h"
#include "pipeline/pipeline.h"

namespace ltee::pipeline {

/// Every parameter TrainPipelineOnGold learns. Loading it into a freshly
/// constructed LteePipeline (same KB, default options) gives a pipeline
/// that scores, clusters and detects bit for bit like the trained one.
struct PipelineModel {
  struct ClassModel {
    kb::ClassId cls = kb::kInvalidClass;
    ml::AggregatorParams clusterer;
    double score_offset = 0.0;
    ml::AggregatorParams detector;
    double new_threshold = 0.0;
    double match_threshold = 0.0;
  };
  matching::SchemaMatcherParams schema_first;
  matching::SchemaMatcherParams schema_refined;
  /// In run-class order.
  std::vector<ClassModel> classes;
};

/// The trained model of `classes` (each must have a trained clusterer
/// and detector in `pipe`).
PipelineModel ExportPipelineModel(const LteePipeline& pipe,
                                  const std::vector<kb::ClassId>& classes);

/// Installs `model` into `pipe`. Rejects (false + `error`, pipeline
/// unchanged) a class or property id outside the pipeline's KB, an
/// aggregator whose metric count differs from the pipeline's enabled
/// metrics, and anything ScoreAggregator::ImportParams rejects.
bool ImportPipelineModel(PipelineModel model, LteePipeline* pipe,
                         std::string* error);

/// Binary model file, the trained-state sibling of the LTEESNP1 serving
/// snapshot, in the util/binary_codec frame (all integers little-endian,
/// doubles as raw bits):
///
///   8 bytes   magic "LTEEMDL1"
///   u32       format version (currently 1)
///   u64       FNV-1a checksum of the payload bytes
///   u64       payload size in bytes
///   payload   both schema matchers, each as u32 count + (i16 class,
///             5 × f64 weights) sorted by class, then u32 count +
///             (i16 property, f64 threshold) sorted by property; u32
///             class count; per class: i16 class id, the row clusterer's
///             aggregator, f64 score offset, the new detector's
///             aggregator, f64 new threshold, f64 match threshold.
///   aggregator  u8 kind, u32 metric count, u32 count + f64 WA weights,
///             f64 WA threshold, f64 blend weight, forest
///   forest    i32 trees, i32 max depth, i32 min samples per leaf,
///             f64 feature fraction, f64 bag fraction (the tuned
///             options), u32 feature count, u32 count + u32 per-tree node
///             counts, u32 count + nodes (i32 feature, f64 threshold,
///             f64 value, i32 left, i32 right), u32 count + f64
///             importances, f64 out-of-bag error
std::string EncodePipelineModel(const PipelineModel& model);

/// Decodes a whole model file's bytes, checking magic, format version,
/// payload size, checksum, bounds, id order and trailing bytes.
bool DecodePipelineModel(const std::string& bytes, PipelineModel* model,
                         std::string* error);

/// Exports `pipe`'s model of `classes` and writes it to `path` atomically
/// (tmp file + rename).
bool SavePipelineModel(const LteePipeline& pipe,
                       const std::vector<kb::ClassId>& classes,
                       const std::string& path, std::string* error);

/// Reads `path`, requires its class list to equal `classes` (the run the
/// model belongs to) and installs it into `pipe`.
bool LoadPipelineModel(const std::string& path,
                       const std::vector<kb::ClassId>& classes,
                       LteePipeline* pipe, std::string* error);

}  // namespace ltee::pipeline

#endif  // LTEE_PIPELINE_MODEL_IO_H_
