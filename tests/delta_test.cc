// Tests of the incremental delta pipeline: scoped stage execution,
// changeset application through kb::Applier, delta state round trips, and
// the two acceptance gates of the subsystem — fixed-seed equivalence
// (full(A+B) must equal full(A)+delta(B), content hash included) and
// ingest-while-serving (readers never block or see torn state while a
// new snapshot version is promoted).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kb/applier.h"
#include "kb/diff.h"
#include "kb/serialization.h"
#include "pipeline/delta.h"
#include "pipeline/gold_artifacts.h"
#include "pipeline/model_io.h"
#include "pipeline/pipeline.h"
#include "pipeline/run_summary.h"
#include "pipeline/stage_context.h"
#include "pipeline/training.h"
#include "prov/ledger.h"
#include "rowcluster/row_metrics.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "test_dataset.h"
#include "util/binary_codec.h"
#include "util/random.h"
#include "util/token_dictionary.h"
#include "webtable/prepared_corpus.h"
#include "webtable/serialization.h"

namespace ltee::pipeline {
namespace {

using ::ltee::testing::SharedDataset;

constexpr size_t kDeltaTables = 50;

/// Clone of a KnowledgeBase via its TSV round trip (the class is
/// move-only by design; tests need independent applyable copies).
kb::KnowledgeBase CloneKb(const kb::KnowledgeBase& kb) {
  std::stringstream buffer;
  kb::SaveKnowledgeBase(kb, buffer);
  auto loaded = kb::LoadKnowledgeBase(buffer);
  EXPECT_TRUE(loaded.has_value());
  return std::move(*loaded);
}

uint64_t ContentHash(const kb::KnowledgeBase& kb, uint64_t version) {
  serve::SnapshotOptions options;
  options.version = version;
  return serve::Snapshot::Build(kb, options)->content_hash();
}

/// Everything the equivalence and serving tests share, computed once:
/// one trained pipeline, a full run over corpus A+B, a base run over
/// corpus A with its delta state, and the incremental ingest of B.
struct DeltaHarness {
  std::unique_ptr<LteePipeline> pipe;
  std::vector<kb::ClassId> classes;
  std::vector<webtable::WebTable> batch;  // the B tables
  size_t num_base_tables = 0;

  DeltaState base_state;   // state after the base run, before the ingest
  DeltaState state;        // state after the ingest
  DeltaIngestResult ingest;

  kb::KnowledgeBase kb_full;   // base KB + full-run changeset
  kb::KnowledgeBase kb_base;   // base KB + base-run changeset
  kb::KnowledgeBase kb_delta;  // base KB + merged post-ingest changeset
};

DeltaState MakeState(const std::vector<kb::ClassId>& classes,
                     const PipelineRunResult& run,
                     kb::ChangeSet changes) {
  DeltaState state;
  state.seed = 41;
  state.classes = classes;
  state.mappings = run.mappings;
  state.feedback = run.feedback;
  state.changes = std::move(changes);
  return state;
}

kb::ChangeSet StageRun(const kb::KnowledgeBase& kb,
                       const PipelineRunResult& run) {
  kb::Applier applier(nullptr);
  for (const auto& class_run : run.classes) {
    applier.Stage(StageClassRun(kb, class_run).change);
  }
  return applier.TakeStaged();
}

const DeltaHarness& Harness() {
  static const DeltaHarness* harness = [] {
    const auto& ds = SharedDataset();
    auto* h = new DeltaHarness;

    // Split the corpus: A = all but the last kDeltaTables tables, B = the
    // tail. Both paths see the tables in identical order, so table ids,
    // RowRefs and everything keyed on them line up.
    h->num_base_tables = ds.corpus.size() - kDeltaTables;
    static webtable::TableCorpus corpus_full;  // outlives the pipeline
    static webtable::TableCorpus corpus_base;
    for (size_t t = 0; t < ds.corpus.size(); ++t) {
      webtable::WebTable copy =
          ds.corpus.table(static_cast<webtable::TableId>(t));
      if (t < h->num_base_tables) {
        corpus_base.Add(copy);
      } else {
        h->batch.push_back(copy);
      }
      corpus_full.Add(std::move(copy));
    }

    PipelineOptions options;
    h->pipe = std::make_unique<LteePipeline>(ds.kb, options);
    testing::LoadOrTrainSharedModel(ds, h->pipe.get());
    for (const auto& gs : ds.gold) h->classes.push_back(gs.cls);

    // Full path: one run over A+B, staged and applied.
    auto run_full = h->pipe->Run(corpus_full, h->classes);
    kb::ChangeSet full_changes = StageRun(ds.kb, run_full);
    h->kb_full = CloneKb(ds.kb);
    kb::ApplyChangeSet(&h->kb_full, full_changes);

    // Incremental path: base run over A, then ingest of B.
    auto run_base = h->pipe->Run(corpus_base, h->classes);
    h->base_state =
        MakeState(h->classes, run_base, StageRun(ds.kb, run_base));
    h->kb_base = CloneKb(ds.kb);
    kb::ApplyChangeSet(&h->kb_base, h->base_state.changes);

    h->state = h->base_state;
    h->ingest =
        DeltaIngest(*h->pipe, &corpus_base, h->batch, &h->state);
    h->kb_delta = CloneKb(ds.kb);
    kb::ApplyChangeSet(&h->kb_delta, h->state.changes);
    return h;
  }();
  return *harness;
}

// ---------------------------------------------------------------------
// The equivalence gate: full(A+B) == full(A) + delta(B), bit for bit.

TEST(DeltaEquivalence, IncrementalIngestMatchesFullRunContentHash) {
  const auto& h = Harness();
  EXPECT_EQ(ContentHash(h.kb_full, 7), ContentHash(h.kb_delta, 8))
      << "content hash is version-independent: the enriched KBs differ";
}

TEST(DeltaEquivalence, IncrementalIngestMatchesFullRunStructurally) {
  const auto& h = Harness();
  const kb::KbDiff diff = kb::DiffKnowledgeBases(h.kb_full, h.kb_delta);
  EXPECT_TRUE(diff.identical())
      << "instances +" << diff.instances_added << " -"
      << diff.instances_removed << " ~" << diff.instances_changed
      << "; facts +" << diff.facts_added << " -" << diff.facts_removed
      << " ~" << diff.facts_changed
      << (diff.samples.empty() ? "" : "; first: " + diff.samples.front());
}

TEST(DeltaEquivalence, BaseRunDiffersFromFullRun) {
  // Guards the gate above against vacuity: if the delta tables changed
  // nothing, hash equality would hold trivially.
  const auto& h = Harness();
  EXPECT_NE(ContentHash(h.kb_base, 1), ContentHash(h.kb_full, 1));
}

TEST(DeltaEquivalence, IngestReportsRecomputedClasses) {
  const auto& h = Harness();
  EXPECT_EQ(h.ingest.new_tables, kDeltaTables);
  ASSERT_FALSE(h.ingest.recomputed.empty());
  for (kb::ClassId cls : h.ingest.recomputed) {
    EXPECT_NE(std::find(h.classes.begin(), h.classes.end(), cls),
              h.classes.end());
  }
  EXPECT_EQ(h.ingest.run.classes.size(), h.ingest.recomputed.size());
}

TEST(DeltaEquivalence, ScopedRunWithFullScopeMatchesRun) {
  const auto& h = Harness();
  // Run() is documented as RunScoped with a full scope; double-check on a
  // live context so the two entry points cannot drift apart.
  StageContext ctx;
  static webtable::TableCorpus small;
  if (small.size() == 0) {
    const auto& ds = SharedDataset();
    for (size_t t = 0; t < 40 && t < ds.gs_corpus.size(); ++t) {
      small.Add(ds.gs_corpus.table(static_cast<webtable::TableId>(t)));
    }
  }
  ctx.corpus = &small;
  ctx.classes = h.classes;
  auto scoped = h.pipe->RunScoped(ctx);
  auto direct = h.pipe->Run(small, h.classes);
  ASSERT_EQ(scoped.mappings.size(), direct.mappings.size());
  for (size_t i = 0; i < scoped.mappings.size(); ++i) {
    EXPECT_EQ(scoped.mappings[i].tables, direct.mappings[i].tables);
  }
  EXPECT_EQ(scoped.recomputed, direct.recomputed);
}

// ---------------------------------------------------------------------
// Delta state persistence.

TEST(DeltaStateIo, RoundTripsByteIdentically) {
  const auto& h = Harness();
  std::stringstream first;
  SaveDeltaState(h.state, first);
  auto loaded = LoadDeltaState(first);
  ASSERT_TRUE(loaded.has_value());
  std::stringstream second;
  SaveDeltaState(*loaded, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(DeltaStateIo, ReloadedMappingsCompareExactlyEqual) {
  // The mapping diff uses exact operator== (scores included); a reloaded
  // baseline must therefore survive the text round trip bit-exactly.
  const auto& h = Harness();
  std::stringstream buffer;
  SaveDeltaState(h.state, buffer);
  auto loaded = LoadDeltaState(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->mappings.size(), h.state.mappings.size());
  for (size_t i = 0; i < h.state.mappings.size(); ++i) {
    EXPECT_EQ(loaded->mappings[i].tables, h.state.mappings[i].tables)
        << "iteration " << i;
  }
  EXPECT_EQ(loaded->classes, h.state.classes);
  EXPECT_EQ(loaded->seed, h.state.seed);
}

TEST(DeltaStateIo, RejectsTruncatedAndMalformedInput) {
  const auto& h = Harness();
  std::stringstream buffer;
  SaveDeltaState(h.state, buffer);
  const std::string full = buffer.str();
  for (size_t cut : {size_t{0}, size_t{3}, full.size() / 2}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(LoadDeltaState(truncated).has_value())
        << "accepted a state truncated to " << cut << " bytes";
  }
  std::stringstream wrong_magic("NOSTATE\t1\t0\t0\t1\n");
  EXPECT_FALSE(LoadDeltaState(wrong_magic).has_value());
}

// ---------------------------------------------------------------------
// Ingest while serving: snapshot promotion must never stall readers.

TEST(IngestWhileServing, ReadersSeeOnlyCompleteVersions) {
  const auto& h = Harness();
  const auto& ds = SharedDataset();

  serve::QueryEngine engine;
  {
    serve::SnapshotOptions options;
    options.version = 1;
    engine.Publish(serve::Snapshot::Build(h.kb_base, options));
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> errors{0};
  std::atomic<size_t> queries{0};
  std::atomic<uint64_t> max_version{0};
  auto reader = [&] {
    uint64_t last_seen = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      serve::QueryResult info = engine.SnapshotInfo();
      if (info.status != 200) {
        errors.fetch_add(1);
        continue;
      }
      // Extract "snapshot_version":N from the JSON body.
      const std::string key = "\"snapshot_version\":";
      size_t pos = info.body.find(key);
      if (pos == std::string::npos) {
        errors.fetch_add(1);
        continue;
      }
      const uint64_t version = std::strtoull(
          info.body.c_str() + pos + key.size(), nullptr, 10);
      if (version != 1 && version != 2) errors.fetch_add(1);
      if (version < last_seen) errors.fetch_add(1);  // went backwards
      last_seen = version;
      uint64_t prev = max_version.load();
      while (version > prev &&
             !max_version.compare_exchange_weak(prev, version)) {
      }
      if (engine.Search("the", 3).status != 200) errors.fetch_add(1);
      queries.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) readers.emplace_back(reader);

  // The actual ingest runs while the readers hammer the engine: scoped
  // pipeline over the delta batch, changeset merge, apply, promote.
  {
    webtable::TableCorpus corpus;
    for (size_t t = 0; t < h.num_base_tables; ++t) {
      corpus.Add(ds.corpus.table(static_cast<webtable::TableId>(t)));
    }
    DeltaState state = h.base_state;
    DeltaIngest(*h.pipe, &corpus, h.batch, &state);
    kb::KnowledgeBase next = CloneKb(ds.kb);
    kb::ApplyChangeSet(&next, state.changes);
    serve::SnapshotOptions options;
    options.version = 2;
    engine.Publish(serve::Snapshot::Build(next, options));
  }
  // Let the readers observe the promotion, then stop them.
  while (max_version.load() < 2 && errors.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(max_version.load(), 2u);
  EXPECT_GT(queries.load(), 0u);
}

// ---------------------------------------------------------------------
// PreparedCorpus append: token-id stability (satellite).

TEST(PreparedCorpusAppend, ExistingTablesAndTokenIdsAreUntouched) {
  const auto& ds = SharedDataset();
  webtable::TableCorpus corpus;
  const size_t initial = 60;
  for (size_t t = 0; t < initial; ++t) {
    corpus.Add(ds.corpus.table(static_cast<webtable::TableId>(t)));
  }
  webtable::PreparedCorpus prepared(corpus);
  ASSERT_EQ(prepared.size(), initial);

  // Snapshot the prepared state of a sample of tables plus the string of
  // every interned id we will compare later.
  std::vector<webtable::PreparedTable> before;
  for (webtable::TableId id : {0, 17, 42, 59}) {
    before.push_back(prepared.table(id));
  }
  std::vector<std::string> tokens_before(prepared.dict().size());
  for (uint32_t id = 0; id < tokens_before.size(); ++id) {
    tokens_before[id] = std::string(prepared.dict().token(id));
  }

  const size_t appended = 25;
  for (size_t t = initial; t < initial + appended; ++t) {
    corpus.Add(ds.corpus.table(static_cast<webtable::TableId>(t)));
  }
  const std::vector<webtable::TableId> new_ids = prepared.Append();
  ASSERT_EQ(new_ids.size(), appended);
  for (size_t i = 0; i < appended; ++i) {
    EXPECT_EQ(new_ids[i], static_cast<webtable::TableId>(initial + i));
  }
  EXPECT_EQ(prepared.size(), initial + appended);

  // Old ids resolve to the same strings and old prepared cells carry the
  // same token ids — nothing was re-interned or shifted.
  EXPECT_GE(prepared.dict().size(), tokens_before.size());
  for (uint32_t id = 0; id < tokens_before.size(); ++id) {
    EXPECT_EQ(prepared.dict().token(id), tokens_before[id]);
  }
  for (const auto& snapshot : before) {
    const auto& current = prepared.table(snapshot.id);
    ASSERT_EQ(current.cells.size(), snapshot.cells.size());
    EXPECT_EQ(current.label_column, snapshot.label_column);
    for (size_t c = 0; c < snapshot.cells.size(); ++c) {
      EXPECT_EQ(current.cells[c].tokens, snapshot.cells[c].tokens);
      EXPECT_EQ(current.cells[c].normalized, snapshot.cells[c].normalized);
    }
  }
  // Appended tables are fully prepared.
  for (webtable::TableId id : new_ids) {
    const auto& table = prepared.table(id);
    EXPECT_EQ(table.id, id);
    EXPECT_EQ(table.cells.size(), table.num_rows * table.num_columns);
  }
}

TEST(PreparedCorpusAppend, NoNewTablesIsANoOp) {
  const auto& ds = SharedDataset();
  webtable::TableCorpus corpus;
  corpus.Add(ds.corpus.table(0));
  webtable::PreparedCorpus prepared(corpus);
  EXPECT_TRUE(prepared.Append().empty());
  EXPECT_EQ(prepared.size(), 1u);
}

// ---------------------------------------------------------------------
// TokenDictionary growth (satellite): property test over random append
// sequences — interning later never moves or re-maps earlier tokens.

TEST(TokenDictionaryGrowth, RandomAppendSequencesPreserveIds) {
  for (uint64_t seed : {1ull, 7ull, 20190326ull}) {
    util::Rng rng(seed);
    util::TokenDictionary dict;
    std::vector<std::pair<std::string, uint32_t>> interned;
    for (int wave = 0; wave < 8; ++wave) {
      const size_t wave_size = 1 + rng.NextBounded(40);
      for (size_t i = 0; i < wave_size; ++i) {
        std::string token;
        const size_t len = 1 + rng.NextBounded(10);
        for (size_t c = 0; c < len; ++c) {
          token.push_back(
              static_cast<char>('a' + rng.NextBounded(26)));
        }
        const uint32_t id = dict.Intern(token);
        interned.emplace_back(std::move(token), id);
      }
      // Every earlier (token, id) pair must still hold after this wave.
      for (const auto& [token, id] : interned) {
        EXPECT_EQ(dict.Find(token), id) << "seed " << seed;
        EXPECT_EQ(dict.token(id), token) << "seed " << seed;
      }
    }
    // Re-interning is idempotent.
    for (const auto& [token, id] : interned) {
      EXPECT_EQ(dict.Intern(token), id);
    }
  }
}

// ---------------------------------------------------------------------
// ClassScope / DiffMappings units.

TEST(ClassScopeTest, FullScopeContainsEverythingAndIgnoresAdds) {
  ClassScope scope = ClassScope::All();
  EXPECT_TRUE(scope.full());
  EXPECT_TRUE(scope.contains(0));
  EXPECT_TRUE(scope.contains(12345));
  scope.Add(3);
  EXPECT_TRUE(scope.full());
  EXPECT_TRUE(scope.classes().empty());
}

TEST(ClassScopeTest, ExplicitScopeDeduplicatesAndSkipsInvalid) {
  ClassScope scope = ClassScope::Of({2, 5, 2});
  EXPECT_FALSE(scope.full());
  EXPECT_EQ(scope.size(), 2u);
  EXPECT_TRUE(scope.contains(2));
  EXPECT_TRUE(scope.contains(5));
  EXPECT_FALSE(scope.contains(3));
  scope.Add(kb::kInvalidClass);
  scope.Add(5);
  EXPECT_EQ(scope.size(), 2u);
  scope.Add(9);
  EXPECT_TRUE(scope.contains(9));
}

matching::SchemaMapping TwoTableMapping() {
  matching::SchemaMapping mapping;
  mapping.tables.resize(2);
  mapping.tables[0].table = 0;
  mapping.tables[0].cls = 4;
  mapping.tables[0].class_score = 0.5;
  mapping.tables[0].columns.resize(2);
  mapping.tables[0].columns[1].property = 7;
  mapping.tables[0].columns[1].score = 0.25;
  mapping.tables[1].table = 1;
  mapping.tables[1].cls = 9;
  mapping.tables[1].class_score = 0.75;
  return mapping;
}

TEST(DiffMappingsTest, IdenticalMappingsProduceEmptyDiff) {
  const auto before = TwoTableMapping();
  const auto after = TwoTableMapping();
  const MappingDiff diff = DiffMappings(before, after);
  EXPECT_TRUE(diff.changed_tables.empty());
  EXPECT_TRUE(diff.classes.empty());
}

TEST(DiffMappingsTest, ScoreDriftCountsAsChange) {
  const auto before = TwoTableMapping();
  auto after = TwoTableMapping();
  after.tables[0].columns[1].score += 1e-12;
  const MappingDiff diff = DiffMappings(before, after);
  ASSERT_EQ(diff.changed_tables.size(), 1u);
  EXPECT_EQ(diff.changed_tables[0], 0);
  EXPECT_EQ(diff.classes, std::vector<kb::ClassId>{4});
}

TEST(DiffMappingsTest, ReassignedTableContributesBothClasses) {
  const auto before = TwoTableMapping();
  auto after = TwoTableMapping();
  after.tables[1].cls = 2;
  const MappingDiff diff = DiffMappings(before, after);
  ASSERT_EQ(diff.changed_tables.size(), 1u);
  EXPECT_EQ(diff.changed_tables[0], 1);
  EXPECT_EQ(diff.classes, (std::vector<kb::ClassId>{2, 9}));
}

TEST(DiffMappingsTest, AppendedTablesAlwaysCountAsChanged) {
  const auto before = TwoTableMapping();
  auto after = TwoTableMapping();
  matching::TableMapping appended;
  appended.table = 2;
  appended.cls = 4;
  after.tables.push_back(appended);
  const MappingDiff diff = DiffMappings(before, after);
  ASSERT_EQ(diff.changed_tables.size(), 1u);
  EXPECT_EQ(diff.changed_tables[0], 2);
  EXPECT_EQ(diff.classes, std::vector<kb::ClassId>{4});
}

// ---------------------------------------------------------------------
// Applier / ChangeSet.

kb::KnowledgeBase TinyKb(kb::PropertyId* prop_out) {
  kb::KnowledgeBase kb;
  const kb::ClassId cls = kb.AddClass("Thing");
  *prop_out = kb.AddProperty(cls, "mass", types::DataType::kQuantity);
  const kb::InstanceId a = kb.AddInstance(cls, {"alpha"});
  kb.AddInstance(cls, {"beta"});
  kb.AddFact(a, *prop_out, types::Value::OfQuantity(10.0));
  return kb;
}

TEST(ApplierTest, FactAddSkipsOccupiedSlots) {
  kb::PropertyId prop;
  kb::KnowledgeBase kb = TinyKb(&prop);
  kb::ChangeSet changes;
  kb::ClassChange change;
  change.cls = 0;
  change.fact_adds.push_back({0, prop, types::Value::OfQuantity(99.0)});
  change.fact_adds.push_back({1, prop, types::Value::OfQuantity(5.0)});
  changes.classes.push_back(change);

  const kb::ApplyOutcome outcome = kb::ApplyChangeSet(&kb, changes);
  EXPECT_EQ(outcome.slot_fills, 1u);  // instance 0's slot was occupied
  EXPECT_DOUBLE_EQ(kb.FactOf(0, prop)->number, 10.0);
  EXPECT_DOUBLE_EQ(kb.FactOf(1, prop)->number, 5.0);

  // Replaying the same changeset is a no-op: both slots now occupied.
  const kb::ApplyOutcome replay = kb::ApplyChangeSet(&kb, changes);
  EXPECT_EQ(replay.slot_fills, 0u);
  EXPECT_EQ(replay.instances_added, 0u);
}

TEST(ApplierTest, ValueChangeOnlyOverwritesExistingFacts) {
  kb::PropertyId prop;
  kb::KnowledgeBase kb = TinyKb(&prop);
  kb::ChangeSet changes;
  kb::ClassChange change;
  change.cls = 0;
  change.value_changes.push_back({0, prop, types::Value::OfQuantity(77.0)});
  change.value_changes.push_back({1, prop, types::Value::OfQuantity(77.0)});
  changes.classes.push_back(change);
  const kb::ApplyOutcome outcome = kb::ApplyChangeSet(&kb, changes);
  EXPECT_EQ(outcome.value_changes, 1u);
  EXPECT_DOUBLE_EQ(kb.FactOf(0, prop)->number, 77.0);
  EXPECT_EQ(kb.FactOf(1, prop), nullptr);
}

TEST(ApplierTest, EntityAddsCreateInstancesWithFacts) {
  kb::PropertyId prop;
  kb::KnowledgeBase kb = TinyKb(&prop);
  kb::Applier applier(&kb);
  kb::ClassChange change;
  change.cls = 0;
  kb::EntityAdd add;
  add.cls = 0;
  add.cluster_id = 3;
  add.labels = {"gamma", "γ"};
  add.facts.push_back({prop, types::Value::OfQuantity(2.5)});
  change.entities.push_back(add);
  applier.Stage(std::move(change));
  const kb::ApplyOutcome outcome = applier.Apply();
  EXPECT_EQ(outcome.instances_added, 1u);
  EXPECT_EQ(outcome.facts_added, 1u);
  ASSERT_EQ(outcome.classes.size(), 1u);
  ASSERT_EQ(outcome.classes[0].new_instance_ids.size(), 1u);
  const kb::InstanceId added = outcome.classes[0].new_instance_ids[0];
  EXPECT_EQ(kb.instance(added).labels.front(), "gamma");
  EXPECT_DOUBLE_EQ(kb.FactOf(added, prop)->number, 2.5);
  // Apply() clears the staging area.
  EXPECT_TRUE(applier.staged().empty());
}

TEST(ApplierTest, ReplaceKeepsRunOrder) {
  kb::Applier applier(nullptr);
  kb::ClassChange second;
  second.cls = 2;
  applier.Stage(second);
  kb::ClassChange first;
  first.cls = 1;
  applier.Stage(first);
  kb::ClassChange replacement;
  replacement.cls = 2;
  replacement.fact_adds.push_back({0, 0, types::Value::OfQuantity(1.0)});
  applier.Stage(replacement);
  const kb::ChangeSet& staged = applier.staged();
  ASSERT_EQ(staged.classes.size(), 2u);
  EXPECT_EQ(staged.classes[0].cls, 2);
  EXPECT_EQ(staged.classes[1].cls, 1);
  EXPECT_EQ(staged.classes[0].fact_adds.size(), 1u);
}

TEST(ChangeSetIo, RoundTripsAllRecordTypesAndEscaping) {
  kb::ChangeSet changes;
  kb::ClassChange change;
  change.cls = 5;
  change.fact_adds.push_back({3, 2, types::Value::Text("tab\there")});
  change.value_changes.push_back({4, 2, types::Value::YearDate(1999)});
  kb::EntityAdd add;
  add.cls = 5;
  add.cluster_id = 12;
  add.labels = {"line\nbreak", "back\\slash"};
  add.facts.push_back({2, types::Value::OfQuantity(3.25)});
  add.facts.push_back({3, types::Value::InstanceRef("target", 9)});
  change.entities.push_back(add);
  changes.classes.push_back(change);
  kb::ClassChange empty_class;
  empty_class.cls = 7;
  changes.classes.push_back(empty_class);

  std::stringstream first;
  kb::SaveChangeSet(changes, first);
  auto loaded = kb::LoadChangeSet(first);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->classes.size(), 2u);
  EXPECT_EQ(loaded->classes[0].entities[0].labels[0], "line\nbreak");
  EXPECT_EQ(loaded->classes[0].fact_adds[0].value.text, "tab\there");
  std::stringstream second;
  kb::SaveChangeSet(*loaded, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(ChangeSetIo, RejectsMalformedRecords) {
  for (const char* bad :
       {"Z\tunknown\n", "G\tnotanumber\n", "G\t1\nS\t1\t2\n",
        "S\t1\t2\tq:3\n",              // S before any G
        "G\t1\nE\t0\t1\t2\tonlylabel\n",  // claims 2 labels, has 1
        "X\t1\tq:3\n"}) {              // X before any E
    std::stringstream in(bad);
    EXPECT_FALSE(kb::LoadChangeSet(in).has_value()) << bad;
  }
}

// ---------------------------------------------------------------------
// The LTEEMDL1 trained-model file.

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Provenance ledger of a full run of `pipe` over the GS corpus.
std::string LedgerOfRun(const LteePipeline& pipe,
                        const std::vector<kb::ClassId>& classes,
                        PipelineRunResult* run) {
  prov::SetEnabled(true);
  prov::Clear();
  *run = pipe.Run(SharedDataset().gs_corpus, classes);
  std::string ledger = prov::ExportJsonLines();
  prov::SetEnabled(false);
  prov::Clear();
  return ledger;
}

// A pipeline loaded from the file of a trained one is the trained one:
// same golden summary, ledger and snapshot hash, and every learned
// number equal — not merely close.
TEST(ModelFile, LoadedPipelineIsBitIdenticalToTrainedPipeline) {
  const auto& ds = SharedDataset();
  const std::vector<kb::ClassId> classes = testing::GoldClasses(ds);
  LteePipeline trained(ds.kb, PipelineOptions());
  util::Rng rng(41);
  TrainPipelineOnGold(&trained, ds.gs_corpus, ds.gold, rng);

  const std::string path = ::testing::TempDir() + "/model_equivalence.bin";
  std::string error;
  ASSERT_TRUE(SavePipelineModel(trained, classes, path, &error)) << error;
  const std::string saved = ReadBytes(path);
  EXPECT_EQ(saved, EncodePipelineModel(ExportPipelineModel(trained, classes)))
      << "two saves of one pipeline differ";
  LteePipeline loaded(ds.kb, PipelineOptions());
  ASSERT_TRUE(LoadPipelineModel(path, classes, &loaded, &error)) << error;
  EXPECT_EQ(EncodePipelineModel(ExportPipelineModel(loaded, classes)), saved)
      << "the loaded pipeline saves different bytes";

  // Learned numbers, scored on the training features of every class.
  const webtable::PreparedCorpus& prepared = trained.Prepared(ds.gs_corpus);
  matching::SchemaMapping gold_mapping;
  gold_mapping.tables.resize(ds.gs_corpus.size());
  for (const auto& gs : ds.gold) {
    MergeGoldMappings(GoldSchemaMapping(ds.gs_corpus, gs, ds.kb),
                      &gold_mapping);
  }
  for (const auto& gs : ds.gold) {
    SCOPED_TRACE(ds.kb.cls(gs.cls).name);
    const auto& tc = trained.clusterer_for(gs.cls);
    const auto& lc = loaded.clusterer_for(gs.cls);
    EXPECT_EQ(tc.score_offset(), lc.score_offset());
    EXPECT_EQ(tc.MetricImportances(), lc.MetricImportances());
    const auto& td = trained.detector_for(gs.cls);
    const auto& ld = loaded.detector_for(gs.cls);
    EXPECT_EQ(td.new_threshold(), ld.new_threshold());
    EXPECT_EQ(td.match_threshold(), ld.match_threshold());
    EXPECT_EQ(td.MetricImportances(), ld.MetricImportances());

    const auto rows = rowcluster::BuildClassRowSet(
        prepared, gold_mapping, gs.cls, ds.kb, trained.kb_index(),
        trained.options().row_features);
    const rowcluster::RowMetricBank bank(
        rows, trained.options().clustering.enabled_metrics);
    const int n = std::min<int>(60, static_cast<int>(rows.rows.size()));
    size_t compared = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const ml::ScoredFeatures f = bank.Compare(i, j);
        ASSERT_EQ(tc.aggregator().Score(f), lc.aggregator().Score(f));
        ++compared;
      }
    }
    std::vector<int> assignment(rows.rows.size(), -1);
    for (size_t i = 0; i < rows.rows.size(); ++i) {
      assignment[i] = gs.ClusterOfRow(rows.rows[i].ref);
    }
    const auto entities = trained.MakeEntityCreator().Create(
        rows, assignment, gold_mapping, prepared);
    for (const auto& entity : entities) {
      if (entity.rows.empty()) continue;
      for (kb::InstanceId id : td.Candidates(entity)) {
        const ml::ScoredFeatures f = td.Compare(entity, id, 1.0);
        ASSERT_EQ(td.aggregator().Score(f), ld.aggregator().Score(f));
        ++compared;
      }
    }
    EXPECT_GT(compared, 1000u);
  }

  // Runs: golden summary, ledger and snapshot content hash.
  PipelineRunResult trained_run, loaded_run;
  const std::string trained_ledger =
      LedgerOfRun(trained, classes, &trained_run);
  const std::string loaded_ledger = LedgerOfRun(loaded, classes, &loaded_run);
  ASSERT_FALSE(loaded_ledger.empty());
  EXPECT_TRUE(loaded_ledger == trained_ledger) << "ledgers differ";
  std::ifstream golden(std::string(LTEE_GOLDEN_DIR) + "/pipeline_summary.txt",
                       std::ios::binary);
  std::stringstream golden_bytes;
  golden_bytes << golden.rdbuf();
  EXPECT_TRUE(SummarizeRun(loaded_run) == golden_bytes.str())
      << "loaded-model run diverges from the golden summary";
  kb::KnowledgeBase kb_trained = CloneKb(ds.kb);
  kb::ApplyChangeSet(&kb_trained, StageRun(ds.kb, trained_run));
  kb::KnowledgeBase kb_loaded = CloneKb(ds.kb);
  kb::ApplyChangeSet(&kb_loaded, StageRun(ds.kb, loaded_run));
  EXPECT_EQ(ContentHash(kb_trained, 1), ContentHash(kb_loaded, 1));
  std::remove(path.c_str());
}

/// A small hand-made aggregator over `num_metrics` metrics: a two-tree
/// forest (one split, one leaf-only tree).
ml::AggregatorParams SmallAggregator(uint32_t num_metrics) {
  ml::AggregatorParams p;
  p.kind = ml::AggregationKind::kCombined;
  p.num_metrics = num_metrics;
  p.wa_weights.assign(num_metrics, 0.5);
  p.wa_threshold = 0.4;
  p.blend_wa = 0.3;
  p.forest.options.num_trees = 2;
  p.forest.num_features = 2 * num_metrics;
  p.forest.tree_sizes = {3, 1};
  p.forest.nodes = {{0, 0.5, 0.0, 1, 2},
                    {-1, 0.0, -0.8, -1, -1},
                    {-1, 0.0, 0.9, -1, -1},
                    {-1, 0.0, 0.1, -1, -1}};
  p.forest.importances.assign(2 * num_metrics, 0.0);
  p.forest.importances[0] = 1.0;
  p.forest.oob_error = 0.25;
  return p;
}

PipelineModel SmallModel(kb::ClassId cls) {
  PipelineModel model;
  model.schema_first.weights = {{cls, {1.0, 0.5, 0.25, 0.125, 1.0}}};
  model.schema_first.thresholds = {{0, 0.4}, {1, 0.6}};
  model.schema_refined = model.schema_first;
  PipelineModel::ClassModel cm;
  cm.cls = cls;
  cm.clusterer = SmallAggregator(rowcluster::kNumRowMetrics);
  cm.score_offset = 0.1;
  cm.detector = SmallAggregator(newdetect::kNumEntityMetrics);
  cm.new_threshold = -0.2;
  cm.match_threshold = 0.3;
  model.classes.push_back(std::move(cm));
  return model;
}

// Hostile model files: every mangling returns false with an error — no
// crash, no hang (a forest back edge would loop forever in prediction),
// and the pipeline is left untouched.
TEST(ModelFile, HostileBytesAreRejectedCleanly) {
  const auto& ds = SharedDataset();
  const kb::ClassId cls = ds.gold.front().cls;
  const std::vector<kb::ClassId> classes = {cls};
  const std::string bytes = EncodePipelineModel(SmallModel(cls));
  const std::string path = ::testing::TempDir() + "/model_hostile.bin";
  const auto try_load = [&](const std::string& content,
                            const std::vector<kb::ClassId>& expected) {
    WriteBytes(path, content);
    LteePipeline pipe(ds.kb, PipelineOptions());
    std::string error;
    const bool ok = LoadPipelineModel(path, expected, &pipe, &error);
    if (!ok) {
      EXPECT_FALSE(error.empty());
      EXPECT_TRUE(pipe.schema_matcher_first().ExportParams().weights.empty())
          << "a rejected model changed the pipeline";
    }
    return std::make_pair(ok, error);
  };
  const auto expect_rejected = [&](const std::string& content,
                                   const std::string& needle,
                                   const std::vector<kb::ClassId>& expected) {
    const auto [ok, error] = try_load(content, expected);
    EXPECT_FALSE(ok) << "accepted; expected \"" << needle << "\"";
    EXPECT_NE(error.find(needle), std::string::npos)
        << "expected \"" << needle << "\" in: " << error;
  };
  const auto model_bytes = [](const PipelineModel& model) {
    return EncodePipelineModel(model);
  };
  {
    const auto [ok, error] = try_load(bytes, classes);
    ASSERT_TRUE(ok) << error;
  }

  // Header: magic[0..7], format u32 @8, checksum u64 @12, size u64 @20,
  // payload @28.
  constexpr size_t kHeader = 28;
  const std::string payload = bytes.substr(kHeader);
  const auto reseal = [&bytes](const std::string& p) {
    std::string out = bytes.substr(0, kHeader);
    const uint64_t checksum = util::Fnv1a(p);
    const uint64_t size = p.size();
    std::memcpy(out.data() + 12, &checksum, sizeof(checksum));
    std::memcpy(out.data() + 20, &size, sizeof(size));
    return out + p;
  };
  PipelineModel decoded;
  std::string error;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    error.clear();
    EXPECT_FALSE(DecodePipelineModel(bytes.substr(0, cut), &decoded, &error))
        << "accepted a file truncated to " << cut << " bytes";
    EXPECT_FALSE(error.empty()) << cut;
  }
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    error.clear();
    EXPECT_FALSE(
        DecodePipelineModel(reseal(payload.substr(0, cut)), &decoded, &error))
        << "accepted a payload truncated to " << cut << " bytes";
    EXPECT_NE(error.find("truncated"), std::string::npos) << cut << ": "
                                                          << error;
  }
  expect_rejected(reseal(payload + "x"), "trailing bytes", classes);
  {
    std::string mangled = bytes;
    mangled[3] ^= 0x01;
    expect_rejected(mangled, "bad magic", classes);
  }
  {
    std::string mangled = bytes;
    mangled[8] = 0x7f;
    expect_rejected(mangled, "format version", classes);
  }
  {
    std::string mangled = bytes;
    mangled[20] ^= 0x01;
    expect_rejected(mangled, "size mismatch", classes);
  }
  expect_rejected(bytes + "xyz", "size mismatch", classes);
  {
    std::string mangled = bytes;
    mangled[13] ^= 0x10;
    expect_rejected(mangled, "checksum", classes);
  }
  {
    std::string mangled = bytes;
    mangled[bytes.size() - 3] ^= 0x40;
    expect_rejected(mangled, "checksum", classes);
  }

  // Against the state and the KB.
  expect_rejected(bytes, "class list", {});
  expect_rejected(bytes, "class list", {cls, cls});
  expect_rejected(bytes, "class list",
                  {static_cast<kb::ClassId>(cls + 1)});
  {
    PipelineModel model = SmallModel(cls);
    model.classes[0].cls = static_cast<kb::ClassId>(ds.kb.num_classes());
    expect_rejected(model_bytes(model), "outside the KB",
                    {model.classes[0].cls});
  }
  {
    PipelineModel model = SmallModel(cls);
    model.schema_refined.weights[0].first = -3;
    expect_rejected(model_bytes(model), "outside the KB", classes);
  }
  {
    PipelineModel model = SmallModel(cls);
    model.schema_first.thresholds.back().first =
        static_cast<kb::PropertyId>(ds.kb.num_properties());
    expect_rejected(model_bytes(model), "outside the KB", classes);
  }
  {
    PipelineModel model = SmallModel(cls);
    std::swap(model.schema_first.thresholds[0],
              model.schema_first.thresholds[1]);
    expect_rejected(model_bytes(model), "not sorted", classes);
  }

  // Forest structure and aggregator shape.
  const auto mangle_forest = [&](auto&& mangle, const std::string& needle) {
    PipelineModel model = SmallModel(cls);
    mangle(&model.classes[0].clusterer);
    expect_rejected(model_bytes(model), needle, classes);
  };
  mangle_forest([](ml::AggregatorParams* a) { a->forest.nodes[0].left = 0; },
                "child index");
  mangle_forest([](ml::AggregatorParams* a) { a->forest.nodes[0].right = -1; },
                "child index");
  mangle_forest([](ml::AggregatorParams* a) { a->forest.nodes[0].right = 3; },
                "child index");
  mangle_forest(
      [](ml::AggregatorParams* a) {
        a->forest.nodes[0].feature = static_cast<int>(a->forest.num_features);
      },
      "split feature");
  mangle_forest(
      [](ml::AggregatorParams* a) { a->forest.nodes[1].feature = -2; },
      "split feature");
  mangle_forest(
      [](ml::AggregatorParams* a) { a->forest.tree_sizes = {4, 1}; },
      "tree sizes");
  mangle_forest(
      [](ml::AggregatorParams* a) { a->forest.tree_sizes = {3, 0, 1}; },
      "tree sizes");
  mangle_forest(
      [](ml::AggregatorParams* a) { a->forest.importances.pop_back(); },
      "importances");
  mangle_forest([](ml::AggregatorParams* a) { a->wa_weights.pop_back(); },
                "weight count");
  mangle_forest(
      [](ml::AggregatorParams* a) {
        *a = SmallAggregator(rowcluster::kNumRowMetrics + 1);
      },
      "metrics, the pipeline enables");
  mangle_forest(
      [](ml::AggregatorParams* a) { a->forest.num_features += 2; },
      "two per metric");
  mangle_forest(  // no trees, but importances MetricImportances would read
      [](ml::AggregatorParams* a) {
        a->forest.tree_sizes.clear();
        a->forest.nodes.clear();
        a->forest.num_features = 3;
        a->forest.importances.assign(3, 0.0);
      },
      "two per metric");
  {
    std::string p = payload;
    // The first class's clusterer kind byte: after both matchers (each
    // u32 + 1 × (i16 + 5 f64), u32 + 2 × (i16 + f64)), the u32 class
    // count and the i16 class id.
    const size_t matcher = 4 + (2 + 40) + 4 + 2 * (2 + 8);
    const size_t kind_at = 2 * matcher + 4 + 2;
    ASSERT_EQ(p[kind_at], static_cast<char>(ml::AggregationKind::kCombined));
    p[kind_at] = 9;
    expect_rejected(reseal(p), "aggregation kind", classes);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ltee::pipeline
