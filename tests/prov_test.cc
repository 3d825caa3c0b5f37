// Tests for the decision-provenance ledger (src/prov): deterministic
// byte-identical export across repeated fixed-seed runs, full-lineage
// completeness of every accepted fact from a real pipeline run, and the
// explain walker's dedup-crossing path on a hand-crafted ledger whose
// fact reached the KB through entity deduplication plus slot filling.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/dedup.h"
#include "pipeline/kb_update.h"
#include "pipeline/pipeline.h"
#include "pipeline/slot_filling.h"
#include "prov/explain.h"
#include "prov/ledger.h"
#include "synth/dataset.h"
#include "test_dataset.h"
#include "util/json_parse.h"

namespace ltee {
namespace {

/// One full fixed-seed provenance run built from scratch — own dataset,
/// own pipeline holding the shared model (trained with Rng(41)), ledger
/// enabled only for inference (the CLI shape — training probes would
/// pollute the decision record), then the dedup / slot-filling /
/// KB-update post-stages.
std::string BuildLedger() {
  synth::DatasetOptions dataset_options;
  dataset_options.scale = 0.002;
  dataset_options.seed = 20190326;
  auto ds = synth::BuildDataset(dataset_options);

  pipeline::PipelineOptions options;
  pipeline::LteePipeline pipe(ds.kb, options);
  testing::LoadOrTrainSharedModel(ds, &pipe);

  prov::SetEnabled(true);
  prov::Clear();
  std::vector<kb::ClassId> classes;
  for (const auto& gs : ds.gold) classes.push_back(gs.cls);
  auto run = pipe.Run(ds.gs_corpus, classes);

  for (auto& class_run : run.classes) {
    auto deduped = pipeline::DeduplicateEntities(
        std::move(class_run.entities), std::move(class_run.detections));
    auto fills =
        pipeline::FillSlots(ds.kb, deduped.entities, deduped.detections);
    pipeline::ApplySlotFills(&ds.kb, fills.new_facts);
    pipeline::AddNewEntitiesToKb(&ds.kb, deduped.entities,
                                 deduped.detections);
  }

  std::string ledger = prov::ExportJsonLines();
  prov::SetEnabled(false);
  prov::Clear();
  return ledger;
}

/// Two independent runs, built once per binary. The class sweep is
/// multi-threaded, so equality of the pair is the determinism property
/// the --provenance-out golden contract relies on.
const std::pair<std::string, std::string>& Ledgers() {
  static const auto* ledgers =
      new std::pair<std::string, std::string>(BuildLedger(), BuildLedger());
  return *ledgers;
}

TEST(ProvLedger, FixedSeedExportIsByteIdentical) {
  const auto& [first, second] = Ledgers();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
}

TEST(ProvLedger, EveryLineIsValidJsonWithEnvelope) {
  const std::string& ledger = Ledgers().first;
  size_t pos = 0, lines = 0;
  while (pos < ledger.size()) {
    size_t end = ledger.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string line = ledger.substr(pos, end - pos);
    pos = end + 1;
    ++lines;
    util::JsonValue value;
    std::string error;
    ASSERT_TRUE(util::ParseJson(line, &value, &error))
        << "line " << lines << ": " << error;
    EXPECT_FALSE(value.StringOr("kind", "").empty()) << line;
    EXPECT_GE(value.NumberOr("iter", 0), 1) << line;
    EXPECT_GE(value.NumberOr("cls", -1), 0) << line;
  }
  EXPECT_GT(lines, 0u);
}

TEST(ProvExplain, FullRunLineageIsCompleteForEveryAcceptedFact) {
  prov::ExplainOptions options;  // no filter: every accepted triple
  const prov::ExplainResult result = prov::Explain(Ledgers().first, options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_GT(result.facts_found, 0);
  EXPECT_EQ(result.complete_chains, result.facts_found)
      << result.facts_found - result.complete_chains
      << " facts have missing lineage links";
  EXPECT_NE(result.output.find("chain: COMPLETE"), std::string::npos);
  EXPECT_EQ(result.output.find("MISSING"), std::string::npos);
}

TEST(ProvExplain, FindsFactBySubjectAndProperty) {
  const std::string& ledger = Ledgers().first;
  // Pull the first accepted triple-level kb_update out of the ledger and
  // explain exactly that fact back.
  std::string subject, property_name;
  size_t pos = 0;
  while (pos < ledger.size() && subject.empty()) {
    size_t end = ledger.find('\n', pos);
    const std::string line = ledger.substr(pos, end - pos);
    pos = end + 1;
    if (line.find("\"kind\":\"kb_update\"") == std::string::npos) continue;
    util::JsonValue value;
    ASSERT_TRUE(util::ParseJson(line, &value));
    const util::JsonValue* accepted = value.Find("accepted");
    if (accepted == nullptr || !accepted->as_bool()) continue;
    if (value.NumberOr("property", -1) < 0) continue;
    subject = value.StringOr("subject", "");
    property_name = value.StringOr("property_name", "");
  }
  ASSERT_FALSE(subject.empty());
  ASSERT_FALSE(property_name.empty());

  prov::ExplainOptions options;
  options.entity = subject;
  options.property = property_name;
  const prov::ExplainResult result = prov::Explain(ledger, options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_GT(result.facts_found, 0);
  EXPECT_EQ(result.complete_chains, result.facts_found);
  EXPECT_NE(result.output.find(subject), std::string::npos);
  EXPECT_NE(result.output.find("--" + property_name + "-->"),
            std::string::npos);
}

// A fact that reached the KB through slot filling on a deduplicated
// cluster: fused on cluster 11, which dedup absorbed into cluster 10,
// whose entity matched an existing instance and filled its empty slot.
// The explain walker must cross the dedup hop to recover the fusion
// event and the source cells behind it.
constexpr char kDedupSlotFillLedger[] =
    R"({"kind":"schema_map","iter":2,"cls":0,"table":3,"column":1,"property":7,"property_name":"college","score":0.9,"threshold":0.5,"accepted":true}
{"kind":"cluster","iter":2,"cls":0,"table":3,"row":4,"cluster_id":11,"cluster_size":2,"support":0.8,"threshold":0.1}
{"kind":"fusion","iter":2,"cls":0,"cluster_id":11,"property":7,"property_name":"college","value":"Yale","rule":"majority","score":1.0,"candidates":1,"sources":[{"table":3,"row":4,"column":1}]}
{"kind":"new_detect","iter":2,"cls":0,"cluster_id":10,"label":"Jane Doe","is_new":false,"best_score":0.9,"new_threshold":0.4,"match_threshold":0.8,"matched_instance":"Jane Doe"}
{"kind":"dedup","iter":2,"cls":0,"cluster_id":10,"absorbed_cluster":11,"facts_adopted":1,"label":"Jane Doe"}
{"kind":"kb_update","iter":2,"cls":0,"cluster_id":10,"subject":"Jane Doe","property":7,"property_name":"college","value":"Yale","accepted":true,"reason":"slot_fill"}
)";

TEST(ProvExplain, CrossesDedupToReachSlotFilledFact) {
  prov::ExplainOptions options;
  options.entity = "jane";  // case-insensitive substring match
  const prov::ExplainResult result =
      prov::Explain(kDedupSlotFillLedger, options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.facts_found, 1);
  EXPECT_EQ(result.complete_chains, 1);
  // The full chain: slot-filled triple, the dedup hop it crossed, the
  // fused value, the source cell with its cluster membership and column
  // mapping, and the EXISTING verdict.
  EXPECT_NE(result.output.find("Jane Doe --college--> Yale"),
            std::string::npos);
  EXPECT_NE(result.output.find("slot_fill"), std::string::npos);
  EXPECT_NE(result.output.find("dedup: cluster 11 absorbed into 10"),
            std::string::npos);
  EXPECT_NE(result.output.find("rule=majority"), std::string::npos);
  EXPECT_NE(result.output.find("cell t3:r4:c1"), std::string::npos);
  EXPECT_NE(result.output.find("in cluster 11"), std::string::npos);
  EXPECT_NE(result.output.find("-> college"), std::string::npos);
  EXPECT_NE(result.output.find("verdict: EXISTING"), std::string::npos);
  EXPECT_NE(result.output.find("chain: COMPLETE"), std::string::npos);
}

TEST(ProvExplain, JsonRenderingEmbedsRawEvents) {
  prov::ExplainOptions options;
  options.entity = "jane";
  options.json = true;
  const prov::ExplainResult result =
      prov::Explain(kDedupSlotFillLedger, options);
  ASSERT_TRUE(result.ok) << result.error;
  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::ParseJson(result.output, &doc, &error)) << error;
  const util::JsonValue* facts = doc.Find("facts");
  ASSERT_NE(facts, nullptr);
  ASSERT_EQ(facts->items().size(), 1u);
  const util::JsonValue& fact = facts->items().front();
  const util::JsonValue* complete = fact.Find("complete");
  ASSERT_NE(complete, nullptr);
  EXPECT_TRUE(complete->as_bool());
  ASSERT_NE(fact.Find("kb_update"), nullptr);
  ASSERT_NE(fact.Find("fusion"), nullptr);
  ASSERT_NE(fact.Find("dedups"), nullptr);
  EXPECT_EQ(fact.Find("dedups")->items().size(), 1u);
  const util::JsonValue* sources = fact.Find("sources");
  ASSERT_NE(sources, nullptr);
  ASSERT_EQ(sources->items().size(), 1u);
  EXPECT_NE(sources->items().front().Find("cluster"), nullptr);
  EXPECT_NE(sources->items().front().Find("schema_map"), nullptr);
}

TEST(ProvExplain, PropertyFilterAndMissingEntity) {
  prov::ExplainOptions options;
  options.entity = "jane";
  options.property = "birthplace";  // no such triple in the ledger
  prov::ExplainResult result = prov::Explain(kDedupSlotFillLedger, options);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.facts_found, 0);
  EXPECT_NE(result.output.find("no matching accepted facts"),
            std::string::npos);

  options.property.clear();
  options.entity = "nobody-by-this-name";
  result = prov::Explain(kDedupSlotFillLedger, options);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.facts_found, 0);
}

TEST(ProvExplain, RejectsMalformedLedger) {
  const prov::ExplainResult result =
      prov::Explain("{\"kind\":\"kb_update\"\n", {});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 1"), std::string::npos);
}

}  // namespace
}  // namespace ltee
