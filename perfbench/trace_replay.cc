// Traced in-process replica of `ltee_cli run` and `ltee_cli ingest` for the
// benchmark's per-layer decomposition.
//
// It loads the same files as the CLI and calls each layer's public entry
// points in the CLI's order: the steps of pipeline::TrainPipelineOnGold,
// the two-iteration LteePipeline::RunScoped with classes in parallel (full
// scope for `run`, the DeltaIngest scope for `ingest`), StageClassRun,
// kb::ApplyChangeSet and serve::SaveSnapshotFile. Every call is wrapped in
// one benchmark-side span; the spans stay in memory and are written out at
// the end, together with their reduction to per-layer metrics. The layer
// of a span is its name up to the first dot.
//
// The replica must end at the content hash of the snapshot the CLI wrote
// for the same inputs (--expect-snapshot): that is what shows its numbers
// break down the computation the end-to-end metrics time. `run` trains
// with the CLI's default seed (kTrainSeed), `ingest` with the state's.
//
// Usage:
//   perfbench_trace run --kb F --corpus F --gs-corpus F --gold F
//       [--min-facts N] [--dedup] --ntriples F --snapshot F
//       --expect-snapshot F --spans-out F --out F
//   perfbench_trace ingest --state DIR --delta F --snapshot F
//       --expect-snapshot F --spans-out F --out F
//
// Exit status 0 on success, 1 when the run failed or the content hashes
// differ, 2 on bad usage.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/gold_serialization.h"
#include "kb/applier.h"
#include "kb/serialization.h"
#include "obsv/memtrack.h"
#include "pipeline/delta.h"
#include "pipeline/gold_artifacts.h"
#include "pipeline/pipeline.h"
#include "serve/snapshot_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "webtable/serialization.h"

namespace {

using namespace ltee;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Spans

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct SpanRecord {
  std::string name;
  /// Class name or iteration the call worked on; empty when neither.
  std::string tag;
  int parent = -1;
  std::thread::id thread;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// CPU time of the calling thread, and of the whole process, while open.
  int64_t thread_cpu_ns = 0;
  int64_t process_cpu_ns = 0;
  /// Work size the span reports (rows clustered), 0 when none.
  double work = 0.0;
};

class Tracer {
 public:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  int Begin(std::string name, std::string tag, int parent) {
    SpanRecord span;
    span.name = std::move(name);
    span.tag = std::move(tag);
    span.parent = parent;
    span.thread = std::this_thread::get_id();
    span.thread_cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    span.process_cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    span.start_ns = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id, double work) {
    const int64_t end = Now();
    const int64_t thread_cpu = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    const int64_t process_cpu = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord& span = spans_[static_cast<size_t>(id)];
    span.end_ns = end;
    span.thread_cpu_ns = thread_cpu - span.thread_cpu_ns;
    span.process_cpu_ns = process_cpu - span.process_cpu_ns;
    span.work = work;
  }

  std::vector<SpanRecord> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;
/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

/// One benchmark-side span around one call into a layer.
class Span {
 public:
  explicit Span(std::string name, std::string tag = "") {
    const int parent = t_open.empty() ? -1 : t_open.back();
    id_ = g_tracer.Begin(std::move(name), std::move(tag), parent);
    t_open.push_back(id_);
  }
  ~Span() {
    t_open.pop_back();
    g_tracer.End(id_, work_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }
  void set_work(double work) { work_ = work; }

 private:
  int id_ = -1;
  double work_ = 0.0;
};

/// Makes `parent` the enclosing span of spans the calling pool thread
/// opens while this object lives.
class Adopt {
 public:
  explicit Adopt(int parent) { t_open.push_back(parent); }
  ~Adopt() { t_open.pop_back(); }
  Adopt(const Adopt&) = delete;
  Adopt& operator=(const Adopt&) = delete;
};

// ---------------------------------------------------------------------------
// The pipeline, call by call

/// `ltee_cli run`'s default --seed.
constexpr uint64_t kTrainSeed = 7;

std::string ClassName(const pipeline::LteePipeline& pipe, kb::ClassId cls) {
  return pipe.knowledge_base().cls(cls).name;
}

/// LteePipeline::RunClass.
pipeline::ClassRunResult TracedRunClass(const pipeline::LteePipeline& pipe,
                                        const webtable::TableCorpus& corpus,
                                        const matching::SchemaMapping& mapping,
                                        kb::ClassId cls) {
  const std::string name = ClassName(pipe, cls);
  Span span("pipeline.run_class", name);
  const webtable::PreparedCorpus& prepared = pipe.Prepared(corpus);
  pipeline::ClassRunResult result;
  result.cls = cls;
  {
    Span s("rowcluster.build_rows", name);
    result.rows = rowcluster::BuildClassRowSet(
        prepared, mapping, cls, pipe.knowledge_base(), pipe.kb_index(),
        pipe.options().row_features);
  }
  {
    Span s("rowcluster.cluster", name);
    const double n = static_cast<double>(result.rows.rows.size());
    s.set_work(n * (n - 1) / 2);
    auto clustering = pipe.clusterer_for(cls).Cluster(result.rows);
    result.cluster_of_row = std::move(clustering.cluster_of);
    result.num_clusters = clustering.num_clusters;
  }
  {
    Span s("fusion.create", name);
    result.entities = pipe.MakeEntityCreator().Create(
        result.rows, result.cluster_of_row, mapping, prepared);
  }
  {
    Span s("newdetect.detect", name);
    result.detections = pipe.detector_for(cls).Detect(result.entities);
  }
  return result;
}

/// pipeline::TrainPipelineOnGold.
void TracedTrain(pipeline::LteePipeline* pipe,
                 const webtable::TableCorpus& gs_corpus,
                 const std::vector<eval::GoldStandard>& gold, util::Rng& rng) {
  Span train("pipeline.train");
  matching::SchemaMapping gold_mapping;
  {
    Span s("pipeline.gold_mapping");
    gold_mapping.tables.resize(gs_corpus.size());
    for (const auto& gs : gold) {
      auto class_mapping = pipeline::GoldSchemaMapping(
          gs_corpus, gs, pipe->knowledge_base());
      pipeline::MergeGoldMappings(class_mapping, &gold_mapping);
    }
  }

  std::vector<webtable::TableId> all_tables;
  std::vector<matching::AttributeAnnotation> annotations;
  const webtable::PreparedCorpus* prepared = nullptr;
  {
    Span s("webtable.prepare", "gs_corpus");
    prepared = &pipe->Prepared(gs_corpus);
  }

  for (const auto& gs : gold) {
    const std::string name = ClassName(*pipe, gs.cls);
    rowcluster::ClassRowSet rows;
    {
      Span s("rowcluster.build_rows", name);
      rows = rowcluster::BuildClassRowSet(
          *prepared, gold_mapping, gs.cls, pipe->knowledge_base(),
          pipe->kb_index(), pipe->options().row_features);
    }
    std::vector<int> assignment(rows.rows.size(), -1);
    for (size_t i = 0; i < rows.rows.size(); ++i) {
      assignment[i] = gs.ClusterOfRow(rows.rows[i].ref);
    }
    {
      Span s("rowcluster.train", name);
      pipe->clusterer_for(gs.cls).Train(rows, assignment, rng);
    }

    auto creator = pipe->MakeEntityCreator();
    std::vector<int> dense_assignment(rows.rows.size(), -1);
    for (size_t i = 0; i < rows.rows.size(); ++i) {
      dense_assignment[i] = assignment[i];
    }
    std::vector<fusion::CreatedEntity> entities;
    {
      Span s("fusion.create", name);
      entities = creator.Create(rows, dense_assignment, gold_mapping,
                                *prepared);
    }
    std::vector<fusion::CreatedEntity> train_entities;
    std::vector<newdetect::DetectionLabel> labels;
    for (size_t k = 0; k < entities.size() && k < gs.clusters.size(); ++k) {
      if (entities[k].rows.empty()) continue;
      train_entities.push_back(std::move(entities[k]));
      labels.push_back({gs.clusters[k].is_new, gs.clusters[k].kb_instance});
    }
    {
      Span s("newdetect.train", name);
      pipe->detector_for(gs.cls).Train(train_entities, labels, rng);
    }

    for (webtable::TableId tid : gs.tables) all_tables.push_back(tid);
    for (const auto& attr : gs.attributes) {
      annotations.push_back({attr.table, attr.column, attr.property});
    }
  }

  {
    Span s("matching.learn", "first");
    pipe->schema_matcher_first().Learn(*prepared, all_tables, annotations, {},
                                       rng);
  }
  matching::SchemaMapping mapping1;
  {
    Span s("matching.match", "train");
    mapping1 = pipe->schema_matcher_first().Match(*prepared);
  }
  std::vector<pipeline::ClassRunResult> first_pass;
  for (const auto& gs : gold) {
    first_pass.push_back(
        TracedRunClass(std::as_const(*pipe), gs_corpus, mapping1, gs.cls));
  }
  matching::RowInstanceMap system_instances;
  matching::RowClusterMap system_clusters;
  {
    Span s("pipeline.feedback", "train");
    pipeline::LteePipeline::CollectFeedback(first_pass, &system_instances,
                                            &system_clusters);
  }
  matching::MatcherFeedback feedback;
  feedback.row_instances = &system_instances;
  feedback.row_clusters = &system_clusters;
  feedback.preliminary = &mapping1;
  {
    Span s("matching.learn", "refined");
    pipe->schema_matcher_refined().Learn(*prepared, all_tables, annotations,
                                         feedback, rng);
  }
}

/// LteePipeline::RunScoped: classes of one iteration run in parallel on
/// `pool`, like the pipeline's own worker pool.
pipeline::PipelineRunResult TracedRunScoped(pipeline::LteePipeline& pipe,
                                            const pipeline::StageContext& ctx,
                                            util::ThreadPool& pool) {
  const std::vector<kb::ClassId>& classes = ctx.classes;
  const int iterations = pipe.options().iterations;
  bool delta = ctx.has_baseline();
  if (delta) {
    bool shape_ok =
        ctx.baseline.mappings->size() == static_cast<size_t>(iterations) &&
        ctx.baseline.feedback->size() == static_cast<size_t>(iterations);
    for (size_t i = 0; shape_ok && i < static_cast<size_t>(iterations); ++i) {
      shape_ok = (*ctx.baseline.feedback)[i].size() == classes.size();
    }
    delta = shape_ok;
  }

  pipeline::PipelineRunResult out;
  matching::RowInstanceMap instances;
  matching::RowClusterMap clusters;
  const webtable::PreparedCorpus* prepared = nullptr;
  {
    Span s("webtable.prepare", "corpus");
    prepared = &pipe.Prepared(*ctx.corpus);
  }

  for (int iteration = 0; iteration < iterations; ++iteration) {
    const std::string iter = "iter" + std::to_string(iteration + 1);
    matching::SchemaMapping mapping;
    {
      Span s("matching.match", iter);
      if (iteration == 0) {
        mapping = pipe.schema_matcher_first().Match(*prepared);
      } else {
        matching::MatcherFeedback feedback;
        feedback.row_instances = &instances;
        feedback.row_clusters = &clusters;
        feedback.preliminary = &out.mappings.back();
        mapping = pipe.schema_matcher_refined().Match(*prepared, feedback);
      }
    }

    pipeline::ClassScope sweep = ctx.scope;
    if (delta) {
      const pipeline::MappingDiff diff =
          pipeline::DiffMappings((*ctx.baseline.mappings)[iteration], mapping);
      for (kb::ClassId cls : diff.classes) sweep.Add(cls);
    }
    std::vector<char> swept(classes.size(), 0);
    for (size_t i = 0; i < classes.size(); ++i) {
      swept[i] = sweep.contains(classes[i]) ? 1 : 0;
    }

    std::vector<pipeline::ClassRunResult> class_results(classes.size());
    {
      Span s("pipeline.sweep", iter);
      const int parent = s.id();
      const pipeline::LteePipeline& const_pipe = pipe;
      pool.ParallelFor(classes.size(), [&](size_t i) {
        if (swept[i] == 0) return;
        Adopt adopt(parent);
        class_results[i] =
            TracedRunClass(const_pipe, *ctx.corpus, mapping, classes[i]);
      });
    }

    {
      Span s("pipeline.feedback", iter);
      std::vector<pipeline::ClassFeedback> iteration_feedback(classes.size());
      for (size_t i = 0; i < classes.size(); ++i) {
        if (swept[i] != 0) {
          iteration_feedback[i] =
              pipeline::LteePipeline::ExtractClassFeedback(class_results[i]);
        } else {
          iteration_feedback[i] = (*ctx.baseline.feedback)[iteration][i];
        }
      }
      instances.clear();
      clusters.clear();
      pipeline::LteePipeline::MergeClassFeedback(iteration_feedback,
                                                 &instances, &clusters);
      out.feedback.push_back(std::move(iteration_feedback));
    }

    out.mappings.push_back(std::move(mapping));
    if (iteration == iterations - 1) {
      for (size_t i = 0; i < classes.size(); ++i) {
        if (swept[i] == 0) continue;
        out.recomputed.push_back(classes[i]);
        out.classes.push_back(std::move(class_results[i]));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The two CLI commands

/// What the reduction needs from one replayed command.
struct OpOutcome {
  /// Every class of the run, in run order.
  std::vector<std::string> class_names;
  /// Final-iteration results of the recomputed classes, with their names.
  std::vector<std::string> result_names;
  std::vector<pipeline::ClassRunResult> classes;
  size_t classes_recomputed = 0;
  kb::ApplyOutcome applied;
  uint64_t pair_hits = 0;
  uint64_t pair_misses = 0;
  /// When the replayed command ended, on the tracer's clock.
  int64_t end_ns = 0;
  /// Allocations and scored pairs of the untimed RowClusterer::Cluster
  /// calls of MeasureClusterAllocs.
  uint64_t cluster_allocs = 0;
  uint64_t cluster_pairs = 0;
};

template <typename T, typename Loader>
std::optional<T> LoadFile(const std::string& path, Loader loader) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench_trace: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  return loader(in);
}

std::optional<kb::KnowledgeBase> LoadKb(const std::string& path) {
  Span s("kb.load");
  return LoadFile<kb::KnowledgeBase>(path, [](std::istream& in) {
    return kb::LoadKnowledgeBase(in);
  });
}

std::optional<webtable::TableCorpus> LoadTables(const std::string& path,
                                                const std::string& tag) {
  Span s("webtable.load", tag);
  return LoadFile<webtable::TableCorpus>(path, [](std::istream& in) {
    return webtable::LoadCorpus(in);
  });
}

std::optional<std::vector<eval::GoldStandard>> LoadGold(
    const std::string& path) {
  Span s("pipeline.load_gold");
  return LoadFile<std::vector<eval::GoldStandard>>(
      path, [](std::istream& in) { return eval::LoadGoldStandards(in); });
}

uint64_t CounterValue(const char* name) {
  return util::Metrics().GetCounter(name).value();
}

/// Runs `run` (the sweep) between pair-cache counter reads.
template <typename Fn>
pipeline::PipelineRunResult CountingPairs(OpOutcome* out, Fn run) {
  const uint64_t hits = CounterValue("ltee.rowcluster.pair_cache.hits");
  const uint64_t misses = CounterValue("ltee.rowcluster.pair_cache.misses");
  pipeline::PipelineRunResult result = run();
  out->pair_hits = CounterValue("ltee.rowcluster.pair_cache.hits") - hits;
  out->pair_misses =
      CounterValue("ltee.rowcluster.pair_cache.misses") - misses;
  return result;
}

void KeepResults(const pipeline::LteePipeline& pipe,
                 const std::vector<kb::ClassId>& classes,
                 pipeline::PipelineRunResult run, OpOutcome* out) {
  for (kb::ClassId cls : classes) {
    out->class_names.push_back(ClassName(pipe, cls));
  }
  for (const auto& result : run.classes) {
    out->result_names.push_back(ClassName(pipe, result.cls));
  }
  out->classes_recomputed = run.recomputed.size();
  out->classes = std::move(run.classes);
}

/// Ends the replayed command, then clusters the final iteration's row sets
/// once more, one class at a time with the allocation counters on, so the
/// process-wide counts hold RowClusterer::Cluster's allocations (its own
/// worker threads included) and nothing else.
void MeasureClusterAllocs(const pipeline::LteePipeline& pipe, OpOutcome* out) {
  out->end_ns = g_tracer.Now();
  obsv::SetMemTrackingEnabled(true);
  for (const auto& result : out->classes) {
    const uint64_t allocs = obsv::GetMemtrackTotals().cum_allocs;
    const uint64_t misses = CounterValue("ltee.rowcluster.pair_cache.misses");
    pipe.clusterer_for(result.cls).Cluster(result.rows);
    out->cluster_allocs += obsv::GetMemtrackTotals().cum_allocs - allocs;
    out->cluster_pairs +=
        CounterValue("ltee.rowcluster.pair_cache.misses") - misses;
  }
  obsv::SetMemTrackingEnabled(false);
}

bool SaveSnapshot(const kb::KnowledgeBase& kb, uint64_t version,
                  const std::string& path) {
  Span s("serve.snapshot_save");
  std::string error;
  if (!serve::SaveSnapshotFile(kb, version, path, &error)) {
    std::fprintf(stderr, "perfbench_trace: cannot publish snapshot: %s\n",
                 error.c_str());
    return false;
  }
  return true;
}

/// `ltee_cli run` over file inputs.
bool ReplayRun(const std::map<std::string, std::string>& flags,
               OpOutcome* out) {
  auto kb = LoadKb(flags.at("kb"));
  auto corpus = LoadTables(flags.at("corpus"), "corpus");
  auto gs_corpus = LoadTables(flags.at("gs-corpus"), "gs_corpus");
  auto gold = LoadGold(flags.at("gold"));
  if (!kb || !corpus || !gs_corpus || !gold) return false;

  std::optional<pipeline::LteePipeline> pipe;
  {
    Span s("index.build");
    pipe.emplace(*kb, pipeline::PipelineOptions{});
  }
  util::Rng rng(kTrainSeed);
  TracedTrain(&*pipe, *gs_corpus, *gold, rng);

  pipeline::StageContext ctx;
  ctx.corpus = &*corpus;
  for (const auto& gs : *gold) ctx.classes.push_back(gs.cls);
  ctx.scope = pipeline::ClassScope::All();
  util::ThreadPool pool(0);
  pipeline::PipelineRunResult run;
  {
    Span s("pipeline.run");
    run = CountingPairs(out,
                        [&] { return TracedRunScoped(*pipe, ctx, pool); });
  }

  std::ofstream ntriples(flags.at("ntriples"));
  if (!ntriples) {
    std::fprintf(stderr, "perfbench_trace: cannot write %s\n",
                 flags.at("ntriples").c_str());
    return false;
  }
  pipeline::StageClassOptions stage_options;
  stage_options.dedup = flags.count("dedup") > 0;
  if (auto it = flags.find("min-facts"); it != flags.end()) {
    stage_options.update.min_facts =
        static_cast<size_t>(std::atoll(it->second.c_str()));
  }
  stage_options.ntriples = &ntriples;
  kb::Applier applier(&*kb);
  for (auto& class_run : run.classes) {
    Span s("pipeline.stage", ClassName(*pipe, class_run.cls));
    applier.Stage(
        pipeline::StageClassRun(*kb, class_run, stage_options).change);
  }
  const kb::ChangeSet changes = applier.TakeStaged();
  {
    Span s("kb.apply");
    out->applied = kb::ApplyChangeSet(&*kb, changes);
  }
  if (!SaveSnapshot(*kb, 1, flags.at("snapshot"))) return false;

  KeepResults(*pipe, ctx.classes, std::move(run), out);
  MeasureClusterAllocs(*pipe, out);
  return true;
}

/// `ltee_cli ingest`, with pipeline::DeltaIngest spelled out.
bool ReplayIngest(const std::map<std::string, std::string>& flags,
                  OpOutcome* out) {
  const std::string dir = flags.at("state");
  auto kb = LoadKb(dir + "/base_kb.tsv");
  auto corpus = LoadTables(dir + "/corpus.tsv", "corpus");
  auto gs_corpus = LoadTables(dir + "/gs_corpus.tsv", "gs_corpus");
  auto delta_corpus = LoadTables(flags.at("delta"), "delta");
  auto gold = LoadGold(dir + "/gold.tsv");
  std::optional<pipeline::DeltaState> state;
  {
    Span s("pipeline.load_state");
    state = LoadFile<pipeline::DeltaState>(
        dir + "/state.tsv",
        [](std::istream& in) { return pipeline::LoadDeltaState(in); });
  }
  if (!kb || !corpus || !gs_corpus || !delta_corpus || !gold || !state) {
    return false;
  }

  std::optional<pipeline::LteePipeline> pipe;
  {
    Span s("index.build");
    pipe.emplace(*kb, pipeline::PipelineOptions{});
  }
  util::Rng rng(state->seed);
  TracedTrain(&*pipe, *gs_corpus, *gold, rng);

  util::ThreadPool pool(0);
  pipeline::PipelineRunResult run;
  {
    Span s("pipeline.run");
    for (const webtable::WebTable& table : delta_corpus->tables()) {
      corpus->Add(table);
    }
    pipeline::StageContext ctx;
    ctx.corpus = &*corpus;
    ctx.classes = state->classes;
    ctx.scope = pipeline::ClassScope::Of({});
    ctx.baseline.mappings = &state->mappings;
    ctx.baseline.feedback = &state->feedback;
    run = CountingPairs(out,
                        [&] { return TracedRunScoped(*pipe, ctx, pool); });
  }
  pipeline::StageClassOptions options;
  options.dedup = state->dedup;
  options.update.min_facts = state->min_facts;
  for (const auto& class_run : run.classes) {
    Span s("pipeline.stage", ClassName(*pipe, class_run.cls));
    state->changes.Replace(
        pipeline::StageClassRun(pipe->knowledge_base(), class_run, options)
            .change);
  }
  state->mappings = run.mappings;
  state->feedback = run.feedback;
  {
    Span s("kb.apply");
    out->applied = kb::ApplyChangeSet(&*kb, state->changes);
  }
  const uint64_t version = state->snapshot_version + 1;
  if (!SaveSnapshot(*kb, version, flags.at("snapshot"))) return false;
  state->snapshot_version = version;
  {
    Span s("pipeline.state_save");
    std::ofstream corpus_out(dir + "/corpus.tsv");
    webtable::SaveCorpus(*corpus, corpus_out);
    std::ofstream state_out(dir + "/state.tsv");
    pipeline::SaveDeltaState(*state, state_out);
    if (!corpus_out || !state_out) {
      std::fprintf(stderr, "perfbench_trace: cannot rewrite %s\n",
                   dir.c_str());
      return false;
    }
  }

  KeepResults(*pipe, state->classes, std::move(run), out);
  MeasureClusterAllocs(*pipe, out);
  return true;
}

// ---------------------------------------------------------------------------
// Reduction

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0, reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

class MetricsOut {
 public:
  void Add(const std::string& name, double value) { values_[name] = value; }
  std::string Json(const std::string& extra) const {
    std::string out = "{";
    for (const auto& [name, value] : values_) {
      out += util::JsonQuote(name) + ":";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out += std::string(buf) + ",";
    }
    return out + extra + "}";
  }

 private:
  std::map<std::string, double> values_;
};

/// Per-layer metrics of the replayed command, whose wall interval is
/// [op_start_ns, op_end_ns) on the tracer's clock.
std::string Reduce(const std::vector<SpanRecord>& spans, const OpOutcome& op,
                   int64_t op_start_ns, int64_t op_end_ns, double snapshot_mb,
                   double snapshot_load_ms) {
  const size_t n = spans.size();
  std::vector<std::vector<int>> children(n);
  std::vector<int> root(n);
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    int r = static_cast<int>(i);
    while (spans[static_cast<size_t>(r)].parent >= 0) {
      r = spans[static_cast<size_t>(r)].parent;
    }
    root[i] = r;
  }
  auto dur = [&](size_t i) { return spans[i].end_ns - spans[i].start_ns; };
  auto in_root = [&](size_t i, const char* name) {
    return spans[static_cast<size_t>(root[i])].name == name;
  };
  auto sum_ms = [&](const std::string& name, const std::string& tag,
                    const char* under) {
    int64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      if (spans[i].name != name) continue;
      if (!tag.empty() && spans[i].tag != tag) continue;
      if (under != nullptr && !in_root(i, under)) continue;
      total += dur(i);
    }
    return Ms(total);
  };

  MetricsOut m;
  std::vector<std::pair<int64_t, int64_t>> top;
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].parent < 0) top.emplace_back(spans[i].start_ns, spans[i].end_ns);
    if (spans[i].name == "pipeline.train" || spans[i].name == "pipeline.run") {
      const std::string base = spans[i].name;
      m.Add(base + "_ms", Ms(dur(i)));
      m.Add(base + "_cpu_ratio",
            dur(i) > 0 ? static_cast<double>(spans[i].process_cpu_ns) /
                             static_cast<double>(dur(i))
                       : 0.0);
    }
  }
  const int64_t wall_ns = op_end_ns - op_start_ns;
  m.Add("trace.wall_ms", Ms(wall_ns));
  m.Add("trace.covered_share",
        wall_ns > 0 ? static_cast<double>(
                          UnionLength(top, op_start_ns, op_end_ns)) /
                          static_cast<double>(wall_ns)
                    : 0.0);

  // Training.
  for (const std::string& cls : op.class_names) {
    m.Add("rowcluster.train_ms." + cls,
          sum_ms("rowcluster.train", cls, nullptr));
    m.Add("newdetect.train_ms." + cls, sum_ms("newdetect.train", cls, nullptr));
  }
  m.Add("matching.learn_ms.first", sum_ms("matching.learn", "first", nullptr));
  m.Add("matching.learn_ms.refined",
        sum_ms("matching.learn", "refined", nullptr));

  // Class sweeps: the slowest class of each sweep against the sweep's wall.
  int64_t sweep_wall = 0, critical = 0;
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].name != "pipeline.sweep") continue;
    m.Add("pipeline.sweep_ms." + spans[i].tag, Ms(dur(i)));
    sweep_wall += dur(i);
    int64_t slowest = 0;
    for (int c : children[i]) slowest = std::max(slowest, dur(c));
    critical += slowest;
  }
  m.Add("pipeline.sweep_critical_share",
        sweep_wall > 0 ? static_cast<double>(critical) /
                             static_cast<double>(sweep_wall)
                       : 0.0);
  m.Add("rowcluster.build_rows_ms",
        sum_ms("rowcluster.build_rows", "", "pipeline.run"));
  double all_pairs = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].name == "rowcluster.cluster" && in_root(i, "pipeline.run")) {
      all_pairs += spans[i].work;
    }
  }
  // A class the final iteration did not recompute reports 0 rows.
  for (const std::string& cls : op.class_names) {
    m.Add("rowcluster.cluster_ms." + cls,
          sum_ms("rowcluster.cluster", cls, "pipeline.run"));
    m.Add("rowcluster.rows." + cls, 0.0);
  }
  size_t entities = 0, new_entities = 0;
  for (size_t k = 0; k < op.classes.size(); ++k) {
    m.Add("rowcluster.rows." + op.result_names[k],
          static_cast<double>(op.classes[k].rows.rows.size()));
    entities += op.classes[k].entities.size();
    for (const auto& d : op.classes[k].detections) new_entities += d.is_new;
  }
  const double scored = static_cast<double>(op.pair_misses);
  m.Add("rowcluster.pairs_scored", scored);
  m.Add("rowcluster.pair_lookups",
        static_cast<double>(op.pair_hits + op.pair_misses));
  m.Add("rowcluster.pairs_scored_share",
        all_pairs > 0 ? scored / all_pairs : 0.0);
  m.Add("rowcluster.allocs_per_pair",
        op.cluster_pairs > 0 ? static_cast<double>(op.cluster_allocs) /
                                   static_cast<double>(op.cluster_pairs)
                             : 0.0);
  m.Add("rowcluster.dense_cache_mb",
        util::Metrics()
                .GetGauge("ltee.rowcluster.pair_cache.dense_bytes")
                .value() /
            1e6);
  m.Add("fusion.create_ms", sum_ms("fusion.create", "", "pipeline.run"));
  m.Add("fusion.entities", static_cast<double>(entities));
  m.Add("newdetect.detect_ms", sum_ms("newdetect.detect", "", "pipeline.run"));
  m.Add("newdetect.new_entities", static_cast<double>(new_entities));

  // Matching and preparation.
  m.Add("matching.match_ms.iter1", sum_ms("matching.match", "iter1", nullptr));
  m.Add("matching.match_ms.iter2", sum_ms("matching.match", "iter2", nullptr));
  m.Add("webtable.load_ms", sum_ms("webtable.load", "", nullptr));
  m.Add("webtable.prepare_ms", sum_ms("webtable.prepare", "", nullptr));
  m.Add("index.build_ms", sum_ms("index.build", "", nullptr));
  m.Add("kb.load_ms", sum_ms("kb.load", "", nullptr));

  // Write path.
  m.Add("pipeline.stage_ms", sum_ms("pipeline.stage", "", nullptr));
  m.Add("kb.apply_ms", sum_ms("kb.apply", "", nullptr));
  m.Add("kb.facts_added", static_cast<double>(op.applied.facts_added));
  m.Add("serve.snapshot_save_ms", sum_ms("serve.snapshot_save", "", nullptr));
  m.Add("serve.snapshot_mb", snapshot_mb);
  m.Add("serve.snapshot_load_ms", snapshot_load_ms);
  m.Add("pipeline.classes_recomputed",
        static_cast<double>(op.classes_recomputed));

  // Per-layer reduction: self time is a span's duration minus the part
  // of it its child spans cover; CPU is the calling thread's, minus the
  // children that ran on the same thread. Total counts only spans with no
  // ancestor of the same layer.
  struct Layer {
    int64_t self_ns = 0, total_ns = 0, cpu_ns = 0;
    size_t count = 0;
  };
  std::map<std::string, Layer> layers;
  for (size_t i = 0; i < n; ++i) {
    const std::string layer = LayerOf(spans[i].name);
    Layer& l = layers[layer];
    ++l.count;
    std::vector<std::pair<int64_t, int64_t>> covered;
    int64_t cpu = spans[i].thread_cpu_ns;
    for (int c : children[i]) {
      covered.emplace_back(spans[static_cast<size_t>(c)].start_ns,
                           spans[static_cast<size_t>(c)].end_ns);
      if (spans[static_cast<size_t>(c)].thread == spans[i].thread) {
        cpu -= spans[static_cast<size_t>(c)].thread_cpu_ns;
      }
    }
    l.self_ns += dur(i) - UnionLength(covered, spans[i].start_ns,
                                      spans[i].end_ns);
    l.cpu_ns += std::max<int64_t>(0, cpu);
    bool nested = false;
    for (int p = spans[i].parent; p >= 0 && !nested;
         p = spans[static_cast<size_t>(p)].parent) {
      nested = LayerOf(spans[static_cast<size_t>(p)].name) == layer;
    }
    if (!nested) l.total_ns += dur(i);
  }
  std::string table = "\"layers\":{";
  bool first = true;
  for (const auto& [name, l] : layers) {
    m.Add(name + ".self_ms", Ms(l.self_ns));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s%s:{\"self_ms\":%.17g,\"total_ms\":%.17g,"
                  "\"cpu_ms\":%.17g,\"count\":%zu}",
                  first ? "" : ",", util::JsonQuote(name).c_str(),
                  Ms(l.self_ns), Ms(l.total_ns), Ms(l.cpu_ns), l.count);
    table += buf;
    first = false;
  }
  return m.Json(table + "}");
}

/// Spans as Chrome trace events (open in Perfetto / chrome://tracing).
std::string ChromeTrace(const std::vector<SpanRecord>& spans) {
  std::map<std::thread::id, int> tids;
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const int tid = tids.emplace(s.thread, static_cast<int>(tids.size()))
                        .first->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":",
                  i ? "," : "", tid, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
    out += util::JsonQuote(s.name) + ",\"args\":{\"tag\":" +
           util::JsonQuote(s.tag) + ",\"parent\":" +
           std::to_string(s.parent) + "}}";
  }
  return out + "]}\n";
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      flags[arg.substr(2)] = "1";
    }
  }
  return flags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_trace run --kb F --corpus F --gs-corpus F "
               "--gold F [--min-facts N] [--dedup] --ntriples F "
               "--snapshot F --expect-snapshot F --spans-out F --out F\n"
               "       perfbench_trace ingest --state DIR --delta F "
               "--snapshot F --expect-snapshot F --spans-out F --out F\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t start_ns = g_tracer.Now();
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  std::vector<const char*> required = {"snapshot", "expect-snapshot",
                                       "spans-out", "out"};
  if (command == "run") {
    for (const char* f : {"kb", "corpus", "gs-corpus", "gold", "ntriples"}) {
      required.push_back(f);
    }
  } else if (command == "ingest") {
    required.push_back("state");
    required.push_back("delta");
  } else {
    return Usage();
  }
  for (const char* f : required) {
    if (!flags.count(f)) return Usage();
  }

  OpOutcome op;
  const bool ok = command == "run" ? ReplayRun(flags, &op)
                                   : ReplayIngest(flags, &op);
  if (!ok) return 1;

  // Verification, outside the timed command: the replica's snapshot must
  // hash like the CLI's.
  std::string error;
  const auto load_start = Clock::now();
  auto mine = serve::LoadSnapshot(flags.at("snapshot"), 4, &error);
  const double load_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - load_start)
          .count();
  auto theirs = serve::LoadSnapshot(flags.at("expect-snapshot"), 4, &error);
  if (mine == nullptr || theirs == nullptr) {
    std::fprintf(stderr, "perfbench_trace: cannot load snapshot: %s\n",
                 error.c_str());
    return 1;
  }
  const double snapshot_mb =
      static_cast<double>(std::filesystem::file_size(flags.at("snapshot"))) /
      1e6;

  const std::vector<SpanRecord> spans = g_tracer.Spans();
  {
    std::ofstream out(flags.at("spans-out"));
    out << ChromeTrace(spans);
  }
  std::string extra =
      "\"content_hash\":" + util::JsonQuote(std::to_string(mine->content_hash())) +
      ",\"expected_hash\":" +
      util::JsonQuote(std::to_string(theirs->content_hash())) + ",";
  std::ofstream out(flags.at("out"));
  out << Reduce(spans, op, start_ns, op.end_ns, snapshot_mb, load_ms)
             .insert(1, extra)
      << "\n";
  if (!out) {
    std::fprintf(stderr, "perfbench_trace: cannot write %s\n",
                 flags.at("out").c_str());
    return 1;
  }
  if (mine->content_hash() != theirs->content_hash() ||
      mine->version() != theirs->version()) {
    std::fprintf(stderr,
                 "perfbench_trace: replica snapshot v%llu hash %llu differs "
                 "from the CLI's v%llu hash %llu\n",
                 static_cast<unsigned long long>(mine->version()),
                 static_cast<unsigned long long>(mine->content_hash()),
                 static_cast<unsigned long long>(theirs->version()),
                 static_cast<unsigned long long>(theirs->content_hash()));
    return 1;
  }
  return 0;
}
