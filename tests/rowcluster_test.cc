#include <gtest/gtest.h>

#include <set>

#include "eval/clustering_eval.h"
#include "pipeline/gold_artifacts.h"
#include "pipeline/pipeline.h"
#include "rowcluster/row_clusterer.h"
#include "rowcluster/row_features.h"
#include "rowcluster/row_metrics.h"
#include "test_dataset.h"
#include "util/similarity.h"
#include "util/token_dictionary.h"

namespace ltee::rowcluster {
namespace {

using ::ltee::testing::SharedDataset;

/// Shared per-binary fixture: the gold-mapping row set of the first gold
/// class (GF-Player) with its gold cluster assignment.
struct GoldRows {
  std::shared_ptr<util::TokenDictionary> dict;
  index::LabelIndex kb_index;
  std::unique_ptr<webtable::PreparedCorpus> prepared;
  matching::SchemaMapping mapping;
  ClassRowSet rows;
  std::vector<int> gold_cluster;
};

const GoldRows& SharedGoldRows() {
  static const GoldRows* state = [] {
    const auto& ds = SharedDataset();
    auto* s = new GoldRows;
    s->dict = std::make_shared<util::TokenDictionary>();
    s->kb_index = pipeline::BuildKbLabelIndex(ds.kb, s->dict);
    s->prepared =
        std::make_unique<webtable::PreparedCorpus>(ds.gs_corpus, s->dict);
    s->mapping.tables.resize(ds.gs_corpus.size());
    for (const auto& gs : ds.gold) {
      auto m = pipeline::GoldSchemaMapping(ds.gs_corpus, gs, ds.kb);
      pipeline::MergeGoldMappings(m, &s->mapping);
    }
    const auto& gs = ds.gold.front();
    s->rows = BuildClassRowSet(*s->prepared, s->mapping, gs.cls, ds.kb,
                               s->kb_index);
    s->gold_cluster.resize(s->rows.rows.size());
    for (size_t i = 0; i < s->rows.rows.size(); ++i) {
      s->gold_cluster[i] = gs.ClusterOfRow(s->rows.rows[i].ref);
    }
    return s;
  }();
  return *state;
}

TEST(RowFeaturesTest, EveryGoldRowIsExtracted) {
  const auto& ds = SharedDataset();
  const auto& state = SharedGoldRows();
  size_t expected = 0;
  for (auto tid : ds.gold.front().tables) {
    expected += ds.gs_corpus.table(tid).num_rows();
  }
  EXPECT_EQ(state.rows.rows.size(), expected);
  for (const auto& row : state.rows.rows) {
    EXPECT_FALSE(row.normalized_label.empty());
    EXPECT_FALSE(row.bow.empty());
    EXPECT_GE(row.table_index, 0);
  }
}

TEST(RowFeaturesTest, ValuesComeFromMatchedColumns) {
  const auto& ds = SharedDataset();
  const auto& state = SharedGoldRows();
  size_t with_values = 0;
  for (const auto& row : state.rows.rows) {
    for (const auto& rv : row.values) {
      EXPECT_EQ(rv.value.type, ds.kb.property(rv.property).type);
      EXPECT_GE(rv.column, 0);
    }
    if (!row.values.empty()) ++with_values;
  }
  EXPECT_GT(with_values, state.rows.rows.size() / 2);
}

TEST(RowFeaturesTest, SomeTablesDeriveImplicitAttributes) {
  const auto& state = SharedGoldRows();
  size_t tables_with_implicit = 0;
  for (const auto& implicit : state.rows.table_implicit) {
    for (const auto& attr : implicit) {
      EXPECT_GE(attr.score, 0.5);
      EXPECT_LE(attr.score, 1.0);
    }
    if (!implicit.empty()) ++tables_with_implicit;
  }
  EXPECT_GT(tables_with_implicit, 0u);
}

TEST(RowFeaturesTest, FilterRowsKeepsSubset) {
  const auto& state = SharedGoldRows();
  std::vector<bool> keep(state.rows.rows.size(), false);
  for (size_t i = 0; i < keep.size(); i += 2) keep[i] = true;
  auto filtered = FilterRows(state.rows, keep);
  EXPECT_EQ(filtered.rows.size(), (state.rows.rows.size() + 1) / 2);
  EXPECT_EQ(filtered.tables.size(), state.rows.tables.size());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(RowMetricsTest, FeatureVectorMatchesEnabledMask) {
  const auto& state = SharedGoldRows();
  RowMetricBank all(state.rows, FirstKMetrics(6));
  EXPECT_EQ(all.num_enabled(), 6);
  auto f = all.Compare(0, 1);
  EXPECT_EQ(f.sims.size(), 6u);
  EXPECT_EQ(f.confs.size(), 6u);

  RowMetricBank only_label(state.rows, FirstKMetrics(1));
  EXPECT_EQ(only_label.Compare(0, 1).sims.size(), 1u);
  EXPECT_EQ(only_label.EnabledNames(),
            (std::vector<std::string>{"LABEL"}));
}

TEST(RowMetricsTest, LabelMetricReflectsLabelEquality) {
  const auto& state = SharedGoldRows();
  RowMetricBank bank(state.rows, FirstKMetrics(1));
  // Find two rows with identical normalized labels (same gold cluster).
  int a = -1, b = -1;
  for (size_t i = 0; i < state.rows.rows.size() && a < 0; ++i) {
    for (size_t j = i + 1; j < state.rows.rows.size(); ++j) {
      if (state.rows.rows[i].normalized_label ==
          state.rows.rows[j].normalized_label) {
        a = static_cast<int>(i);
        b = static_cast<int>(j);
        break;
      }
    }
  }
  ASSERT_GE(a, 0) << "no duplicate labels in gold rows";
  EXPECT_DOUBLE_EQ(bank.Compare(a, b).sims[0], 1.0);
}

TEST(RowMetricsTest, LabelMetricEqualsMongeElkanOnEveryPair) {
  // The bank's precomputed LABEL path and both util overloads run one
  // Monge-Elkan loop, so they agree exactly, not just approximately.
  const auto& state = SharedGoldRows();
  const auto& rows = state.rows.rows;
  const util::TokenDictionary& dict = *state.rows.dict;
  RowMetricBank bank(state.rows, FirstKMetrics(1));
  std::vector<std::vector<std::string>> strings(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (uint32_t id : rows[i].label_tokens) {
      strings[i].emplace_back(dict.token(id));
    }
  }
  ASSERT_GT(rows.size(), 1u);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < rows.size(); ++j) {
      const double expected = util::MongeElkanLevenshtein(
          rows[i].label_tokens, rows[j].label_tokens, dict);
      ASSERT_EQ(bank.Compare(static_cast<int>(i), static_cast<int>(j)).sims[0],
                expected)
          << i << " vs " << j;
      ASSERT_EQ(util::MongeElkanLevenshtein(strings[i], strings[j]), expected)
          << i << " vs " << j;
    }
  }
}

TEST(RowMetricsTest, SameTableMetricIsZeroWithinTable) {
  const auto& state = SharedGoldRows();
  RowMetricBank bank(state.rows, FirstKMetrics(6));
  int a = -1, b = -1, c = -1;
  for (size_t i = 0; i + 1 < state.rows.rows.size(); ++i) {
    if (state.rows.rows[i].table_index == state.rows.rows[i + 1].table_index) {
      a = static_cast<int>(i);
      b = static_cast<int>(i + 1);
    } else {
      c = static_cast<int>(i + 1);
    }
    if (a >= 0 && c >= 0) break;
  }
  ASSERT_GE(a, 0);
  const int same_table_slot = 5;
  EXPECT_DOUBLE_EQ(bank.Compare(a, b).sims[same_table_slot], 0.0);
  if (c >= 0 && state.rows.rows[a].table_index !=
                    state.rows.rows[c].table_index) {
    EXPECT_DOUBLE_EQ(bank.Compare(a, c).sims[same_table_slot], 1.0);
  }
}

TEST(RowMetricsTest, AttributeMetricNotApplicableWithoutOverlap) {
  ClassRowSet rows;
  rows.cls = 0;
  rows.dict = std::make_shared<util::TokenDictionary>();
  rows.tables = {0, 1};
  rows.table_implicit.resize(2);
  rows.table_phi.resize(2);
  RowFeature a;
  a.table_index = 0;
  a.normalized_label = "x";
  a.label_tokens = rows.dict->InternTokens(a.normalized_label);
  RowFeature b = a;
  b.table_index = 1;
  a.values.push_back({0, 1, types::Value::OfQuantity(5)});
  b.values.push_back({1, 1, types::Value::OfQuantity(5)});  // other property
  rows.rows = {a, b};
  RowMetricBank bank(rows, FirstKMetrics(6));
  auto f = bank.Compare(0, 1);
  EXPECT_DOUBLE_EQ(f.sims[3], -1.0);  // ATTRIBUTE n/a
  EXPECT_DOUBLE_EQ(f.confs[3], 0.0);
}

// ---------------------------------------------------------------------------
// Clustering driver
// ---------------------------------------------------------------------------

TEST(RowClustererTest, BlocksGroupSimilarLabels) {
  const auto& state = SharedGoldRows();
  RowClusterer clusterer;
  auto blocks = clusterer.BuildBlocks(state.rows);
  ASSERT_EQ(blocks.size(), state.rows.rows.size());
  // Rows with identical labels must share their primary block.
  for (size_t i = 0; i < state.rows.rows.size(); ++i) {
    for (size_t j = i + 1; j < state.rows.rows.size(); ++j) {
      if (state.rows.rows[i].normalized_label ==
          state.rows.rows[j].normalized_label) {
        EXPECT_EQ(blocks[i][0], blocks[j][0]);
      }
    }
  }
}

TEST(RowClustererTest, DisabledBlockingYieldsSingleBlock) {
  const auto& state = SharedGoldRows();
  RowClustererOptions options;
  options.enable_blocking = false;
  RowClusterer clusterer(options);
  auto blocks = clusterer.BuildBlocks(state.rows);
  for (const auto& b : blocks) {
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], 0);
  }
}

TEST(RowClustererTest, TrainedClustererRecoversGoldClustersReasonably) {
  const auto& ds = SharedDataset();
  const auto& state = SharedGoldRows();
  RowClusterer clusterer;
  util::Rng rng(23);
  clusterer.Train(state.rows, state.gold_cluster, rng);
  auto result = clusterer.Cluster(state.rows);
  EXPECT_GT(result.num_clusters, 10);

  std::vector<webtable::RowRef> refs;
  for (const auto& row : state.rows.rows) refs.push_back(row.ref);
  auto grouped = eval::GroupRows(refs, result.cluster_of);
  auto metrics = eval::EvaluateClustering(grouped, ds.gold.front());
  // In-sample clustering should be clearly better than chance.
  EXPECT_GT(metrics.f1, 0.5);

  auto importances = clusterer.MetricImportances();
  ASSERT_EQ(importances.size(), 6u);
  double sum = 0;
  for (double imp : importances) sum += imp;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

}  // namespace
}  // namespace ltee::rowcluster
