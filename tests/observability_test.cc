// End-to-end observability: a traced pipeline run over the shared
// synthetic dataset must produce spans for every stage, a structurally
// valid RunReport JSON, and non-zero counters for the instrumented
// subsystems (thread pool, pair cache, prepared corpus).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/pipeline.h"
#include "pipeline/run_report.h"
#include "test_dataset.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ltee::pipeline {
namespace {

using ::ltee::testing::SharedDataset;

/// One traced, trained run shared by all tests in this file. Tracing is
/// enabled before Run so that every stage records spans.
struct TracedRun {
  std::unique_ptr<LteePipeline> pipeline;
  PipelineRunResult run;
  std::string trace_json;
};

const TracedRun& SharedTracedRun() {
  static const TracedRun* state = [] {
    util::trace::Clear();
    util::trace::SetEnabled(true);
    const auto& ds = SharedDataset();
    auto* s = new TracedRun;
    PipelineOptions options;
    s->pipeline = std::make_unique<LteePipeline>(ds.kb, options);
    testing::LoadOrTrainSharedModel(ds, s->pipeline.get());
    std::vector<kb::ClassId> classes;
    for (const auto& gs : ds.gold) classes.push_back(gs.cls);
    s->run = s->pipeline->Run(ds.gs_corpus, classes);
    s->trace_json = util::trace::ExportChromeTrace();
    util::trace::SetEnabled(false);
    return s;
  }();
  return *state;
}

uint64_t CounterValue(const util::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

TEST(ObservabilityTest, TraceIsValidJsonWithSpansForEveryStage) {
  const auto& traced = SharedTracedRun();
  std::string error;
  ASSERT_TRUE(util::JsonIsValid(traced.trace_json, &error)) << error;
  for (const char* span : {
           "\"pipeline.run\"", "\"webtable.prepare_corpus\"",
           "\"pipeline.schema_match\"", "\"matching.schema_match\"",
           "\"pipeline.class_sweep\"", "\"pipeline.run_class\"",
           "\"rowcluster.metric_bank\"", "\"rowcluster.cluster\"",
           "\"fusion.create\"", "\"newdetect.detect\"",
       }) {
    EXPECT_NE(traced.trace_json.find(span), std::string::npos)
        << "missing span " << span;
  }
}

TEST(ObservabilityTest, ReportHasAllPipelineStages) {
  const auto& report = SharedTracedRun().run.report;
  std::vector<std::string> stages;
  for (const auto& stage : report.stages) {
    stages.push_back(stage.stage);
    EXPECT_GE(stage.seconds, 0.0);
  }
  const std::vector<std::string> expected = {
      "prepare_corpus",       "schema_match.iter1", "class_sweep.iter1",
      "collect_feedback.iter1", "schema_match.iter2", "class_sweep.iter2",
      "collect_feedback.iter2"};
  EXPECT_EQ(stages, expected);
  EXPECT_GT(report.total_seconds, 0.0);
  // One ClassStageReport per class per iteration, each with stage timings.
  EXPECT_EQ(report.classes.size(), SharedDataset().gold.size() * 2);
  for (const auto& class_report : report.classes) {
    EXPECT_FALSE(class_report.stages.empty());
  }
}

TEST(ObservabilityTest, ReportJsonIsValid) {
  const auto& report = SharedTracedRun().run.report;
  const std::string json = RunReportToJson(report);
  std::string error;
  ASSERT_TRUE(util::JsonIsValid(json, &error)) << error;
  EXPECT_NE(json.find("\"total_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"prepare_corpus\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(ObservabilityTest, InstrumentedSubsystemCountersAreNonZero) {
  const auto& metrics = SharedTracedRun().run.report.metrics;
  EXPECT_GT(CounterValue(metrics, "ltee.threadpool.tasks_completed"), 0u);
  EXPECT_GT(CounterValue(metrics, "ltee.prepared.tables"), 0u);
  EXPECT_GT(CounterValue(metrics, "ltee.rowcluster.pair_cache.misses"), 0u);
  EXPECT_GT(CounterValue(metrics, "ltee.fusion.entities_created"), 0u);
  EXPECT_GT(CounterValue(metrics, "ltee.newdetect.entities_scored"), 0u);
  EXPECT_GT(CounterValue(metrics, "ltee.matching.columns_matched"), 0u);
}

}  // namespace
}  // namespace ltee::pipeline
