// Command-line interface to the LTEE library: generate a synthetic
// experiment environment to files, inspect knowledge bases and corpora,
// and run the full pipeline over file-based inputs (or a default
// synthetic dataset), exporting discovered long-tail entities as RDF
// N-Triples plus optional observability artifacts.
//
// Usage:
//   ltee_cli generate --out DIR [--scale S] [--seed N]
//   ltee_cli stats --kb FILE | --corpus FILE
//   ltee_cli run [--kb FILE --corpus FILE --gs-corpus FILE --gold FILE]
//            [--scale S] [--ntriples FILE] [--min-facts N] [--dedup]
//            [--seed N] [--trace-out FILE] [--metrics-out FILE]
//            [--provenance-out FILE] [--log-level LEVEL]
//            [--status-port PORT]
//   ltee_cli explain [QUERY] --ledger FILE [--property NAME] [--first]
//            [--json]
//   ltee_cli analyze-trace TRACE.json [--json]
//
// Without the four input files, `run` builds the default synthetic
// dataset in memory. --trace-out enables tracing and writes Chrome
// trace-event JSON (open in Perfetto); --metrics-out writes the run
// report (per-stage wall times + metrics snapshot) as JSON; --log-level
// overrides LTEE_LOG_LEVEL.
//
// --provenance-out enables the decision-provenance ledger (every schema
// mapping, cluster membership, fused value, NEW/EXISTING verdict and KB
// mutation of the run) and writes it as JSON lines; `explain` then walks
// a fact's lineage backwards through that ledger: KB triple -> fused
// value -> source cells -> cluster memberships -> column mappings.
//
// --status-port (or the LTEE_STATUS_PORT env var) serves live
// introspection while the run executes: GET /metrics (Prometheus text),
// /report (latest run report), /trace (Chrome trace JSON), /provenance
// (published ledger; ?entity= filters to a lineage), /healthz.
// `analyze-trace` aggregates an exported trace into per-span self-time /
// percentile statistics and per-class critical paths (--json switches
// the output to machine-readable JSON).

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "eval/gold_serialization.h"
#include "kb/applier.h"
#include "kb/serialization.h"
#include "obsv/access_log.h"
#include "obsv/crash_flush.h"
#include "obsv/http_client.h"
#include "obsv/memtrack.h"
#include "obsv/profiler.h"
#include "obsv/span_analytics.h"
#include "obsv/status_server.h"
#include "pipeline/dedup.h"
#include "pipeline/delta.h"
#include "pipeline/kb_update.h"
#include "pipeline/model_io.h"
#include "pipeline/pipeline.h"
#include "pipeline/slot_filling.h"
#include "pipeline/training.h"
#include "prov/explain.h"
#include "prov/ledger.h"
#include "serve/kb_endpoints.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_io.h"
#include "synth/dataset.h"
#include "util/binary_codec.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "webtable/serialization.h"

namespace {

using namespace ltee;

/// The flags that take no value: the CLI reads them only through
/// `flags.count`, so the argument after one is never its value.
constexpr std::string_view kSwitches[] = {
    "dedup", "expect-json", "first", "json", "memtrack", "show-traceparent",
    "watch"};

/// True when argv[i], a `--flag`, takes the next argument as its value.
bool TakesValue(int argc, char** argv, int i) {
  return i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0 &&
         std::find(std::begin(kSwitches), std::end(kSwitches),
                   argv[i] + 2) == std::end(kSwitches);
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string key = argv[i] + 2;
    flags[key] = TakesValue(argc, argv, i) ? argv[++i] : "1";
  }
  return flags;
}

/// First argument after `first` that is neither a flag nor a flag's
/// value, following the same pairing rule as ParseFlags.
std::string FirstPositional(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) return argv[i];
    if (TakesValue(argc, argv, i)) ++i;
  }
  return "";
}

/// Reads a whole input file, or says it cannot.
bool ReadInput(const std::string& path, std::string* content) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *content = buffer.str();
  return true;
}

/// Closes an output file through util::CloseOutputFile, the check every
/// CLI output and binary file shares, so a full disk or an unwritable
/// target (/dev/full) fails the command instead of passing silently.
bool CloseOutput(std::ofstream& out, const std::string& path) {
  std::string error;
  if (util::CloseOutputFile(&out, path, &error)) return true;
  std::fprintf(stderr, "%s\n", error.c_str());
  return false;
}

/// Writes one output file through `saver(std::ostream&)`, checked by
/// CloseOutput.
template <typename Saver>
bool WriteOutput(const std::string& path, Saver&& saver) {
  std::ofstream out(path);
  if (out) saver(out);
  return CloseOutput(out, path);
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ltee_cli generate --out DIR [--scale S] [--seed N] "
               "[--delta-split N]\n"
               "  ltee_cli stats --kb FILE | --corpus FILE\n"
               "  ltee_cli run [--kb FILE --corpus FILE --gs-corpus FILE "
               "--gold FILE] [--scale S] [--ntriples FILE] [--min-facts N] "
               "[--dedup] [--seed N] [--state-out DIR] [--trace-out FILE] "
               "[--metrics-out FILE] [--provenance-out FILE] "
               "[--profile-out FILE] [--profile-hz N] "
               "[--memtrack] [--heap-profile-out FILE] "
               "[--heap-sample-kb N] "
               "[--log-level debug|info|warning|error] [--status-port PORT] "
               "[--status-linger SECONDS]\n"
               "  ltee_cli ingest --state DIR --delta FILE "
               "[--publish-snapshot FILE] [--snapshot-version N] "
               "[--ledger FILE]\n"
               "  ltee_cli explain [QUERY] --ledger FILE [--property NAME] "
               "[--first] [--json]\n"
               "  ltee_cli analyze-trace TRACE.json [--json]\n"
               "  ltee_cli analyze-profile PROFILE.collapsed [--json] "
               "[--top N]\n"
               "  ltee_cli analyze-memory PROFILE.collapsed [--json] "
               "[--top N]\n"
               "  ltee_cli serve --snapshot FILE [--port PORT] [--shards N] "
               "[--workers N] [--cache-capacity N] [--linger SECONDS] "
               "[--watch] [--trace-out FILE] [--access-log FILE] "
               "[--slow-ms MS]\n"
               "  ltee_cli get --port PORT --path /kb/... [--expect-json] "
               "[--traceparent HEADER] [--show-traceparent]\n"
               "run uses the default synthetic dataset when the four input "
               "files are omitted; --status-port (or LTEE_STATUS_PORT) "
               "serves /metrics /report /trace /provenance /healthz while it "
               "executes. --provenance-out records every pipeline decision "
               "as JSON lines; explain prints the lineage of the accepted "
               "facts whose subject contains QUERY. "
               "run --publish-snapshot FILE writes the enriched KB as a "
               "binary serving snapshot at end of run "
               "(--snapshot-version stamps it); run --state-out DIR "
               "persists the delta-resumable state and the trained model; "
               "ingest loads that model (no retraining), appends the "
               "delta tables, reruns only affected classes, and publishes "
               "the next snapshot version; serve answers /kb/entity "
               "/kb/search /kb/classes /kb/snapshot (plus /metrics /stats "
               "/healthz) from such a file until SIGINT/SIGTERM "
               "(--watch republishes when the snapshot file changes; "
               "--trace-out exports the request spans on shutdown, "
               "--access-log writes the request ring as JSON lines, "
               "--slow-ms sets the slow-request WARNING threshold); get "
               "is a dependency-free loopback HTTP client for scripts "
               "(--traceparent sends the header downstream, "
               "--show-traceparent prints the server's response header on "
               "stderr). run --profile-out samples the pipeline's CPU "
               "(--profile-hz, default 99) and writes flamegraph.pl-ready "
               "collapsed stacks; analyze-profile aggregates such a file "
               "(top functions by self samples + per-span CPU); a status "
               "or serve port also answers GET /profile?seconds=N&hz=H "
               "with a live capture. run --memtrack (or LTEE_MEMTRACK=1) "
               "counts every allocation cheaply (per-stage byte deltas "
               "and peak RSS land in the run report); --heap-profile-out "
               "additionally attributes bytes to the open span and samples "
               "allocation stacks (~1 per --heap-sample-kb KB, default 64) "
               "and writes a collapsed heap profile weighted by live "
               "bytes; analyze-memory aggregates such a file; a status or "
               "serve port also answers GET /memory?seconds=N&sample_kb=K "
               "with a live heap capture\n");
  return 2;
}

int Generate(const std::map<std::string, std::string>& flags) {
  auto out_it = flags.find("out");
  if (out_it == flags.end()) return Usage();
  const std::string dir = out_it->second;
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }

  synth::DatasetOptions options;
  if (auto it = flags.find("scale"); it != flags.end()) {
    options.scale = std::atof(it->second.c_str());
  }
  if (auto it = flags.find("seed"); it != flags.end()) {
    options.seed = std::strtoull(it->second.c_str(), nullptr, 10);
  }
  auto dataset = synth::BuildDataset(options);

  auto write = [&dir](const std::string& name, auto&& saver) {
    const std::string path = dir + "/" + name;
    if (!WriteOutput(path, saver)) return false;
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  bool ok = true;
  ok &= write("kb.tsv", [&](std::ostream& out) {
    kb::SaveKnowledgeBase(dataset.kb, out);
  });
  ok &= write("corpus.tsv", [&](std::ostream& out) {
    webtable::SaveCorpus(dataset.corpus, out);
  });
  ok &= write("gs_corpus.tsv", [&](std::ostream& out) {
    webtable::SaveCorpus(dataset.gs_corpus, out);
  });
  ok &= write("gold.tsv", [&](std::ostream& out) {
    eval::SaveGoldStandards(dataset.gold, out);
  });

  // --delta-split N: additionally write the corpus as a base part and a
  // delta part of N tables, the inputs of a `run --state-out` followed by
  // an `ingest --delta` (full(A+B) must equal full(A)+delta(B)).
  if (auto it = flags.find("delta-split"); it != flags.end()) {
    const size_t requested =
        static_cast<size_t>(std::atoll(it->second.c_str()));
    const size_t delta = std::min(dataset.corpus.size(), requested);
    const size_t num_base = dataset.corpus.size() - delta;
    webtable::TableCorpus base_corpus, delta_corpus;
    for (size_t t = 0; t < dataset.corpus.size(); ++t) {
      webtable::WebTable copy =
          dataset.corpus.table(static_cast<webtable::TableId>(t));
      if (t < num_base) {
        base_corpus.Add(std::move(copy));
      } else {
        delta_corpus.Add(std::move(copy));
      }
    }
    ok &= write("corpus_base.tsv", [&](std::ostream& out) {
      webtable::SaveCorpus(base_corpus, out);
    });
    ok &= write("corpus_delta.tsv", [&](std::ostream& out) {
      webtable::SaveCorpus(delta_corpus, out);
    });
  }
  return ok ? 0 : 1;
}

int Stats(const std::map<std::string, std::string>& flags) {
  if (auto it = flags.find("kb"); it != flags.end()) {
    std::ifstream in(it->second);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", it->second.c_str());
      return 1;
    }
    auto kb = kb::LoadKnowledgeBase(in);
    if (!kb) return 1;
    std::printf("%zu classes, %zu properties, %zu instances\n",
                kb->num_classes(), kb->num_properties(), kb->num_instances());
    for (size_t c = 0; c < kb->num_classes(); ++c) {
      const auto stats = kb->StatsOfClass(static_cast<kb::ClassId>(c));
      if (stats.instances == 0) continue;
      std::printf("  %-26s %8zu instances %10zu facts\n",
                  kb->cls(static_cast<kb::ClassId>(c)).name.c_str(),
                  stats.instances, stats.facts);
    }
    return 0;
  }
  if (auto it = flags.find("corpus"); it != flags.end()) {
    std::ifstream in(it->second);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", it->second.c_str());
      return 1;
    }
    auto corpus = webtable::LoadCorpus(in);
    if (!corpus) return 1;
    const auto stats = corpus->Stats();
    std::printf("%zu tables, %zu rows\n", stats.num_tables,
                corpus->TotalRows());
    std::printf("rows    avg %.2f median %.1f min %.0f max %.0f\n",
                stats.rows.average, stats.rows.median, stats.rows.min,
                stats.rows.max);
    std::printf("columns avg %.2f median %.1f min %.0f max %.0f\n",
                stats.columns.average, stats.columns.median,
                stats.columns.min, stats.columns.max);
    return 0;
  }
  return Usage();
}

/// Reports a sampler `run` could not start; returns the exit status.
int CannotStart(const char* sampler, const std::string& error) {
  std::fprintf(stderr, "cannot start %s: %s\n", sampler, error.c_str());
  return 1;
}

/// Writes a stopped sampler's collapsed profile to `path`, then resets
/// the sampler.
bool ExportSamples(const std::string& path, std::string (*collect)(),
                   void (*reset)()) {
  if (!WriteOutput(path, [collect](std::ostream& out) { out << collect(); })) {
    return false;
  }
  reset();
  return true;
}

int Run(const std::map<std::string, std::string>& flags) {
  // --trace-out implies tracing on (LTEE_TRACE=1 enables it without a
  // flag; the export then has to be requested explicitly).
  const bool want_trace = flags.count("trace-out") > 0;
  if (want_trace) util::trace::SetEnabled(true);

  // Memory accounting must be on before the pipeline allocates anything:
  // per-stage byte deltas in the run report read the live counter.
  // --heap-profile-out implies --memtrack (the profiler session would
  // enable it anyway; doing it here covers dataset synthesis too).
  const bool want_heap = flags.count("heap-profile-out") > 0;
  const bool want_memtrack = want_heap || flags.count("memtrack") > 0;
  if (want_memtrack) {
    if (!obsv::MemTrackingSupported()) {
      std::fprintf(stderr,
                   "warning: memory tracking unsupported in this build "
                   "(sanitizer or non-Linux); counters stay zero\n");
    }
    obsv::SetMemTrackingEnabled(true);
  }

  // A crashing run still flushes its observability artifacts: arm now,
  // disarm after the normal export paths below have written the files.
  const bool want_profile = flags.count("profile-out") > 0;
  if (want_trace || flags.count("metrics-out") || want_profile ||
      want_heap) {
    obsv::ArmCrashFlush(
        want_trace ? flags.at("trace-out") : std::string(),
        flags.count("metrics-out") ? flags.at("metrics-out")
                                   : std::string(),
        std::string(),
        want_profile ? flags.at("profile-out") : std::string(),
        want_heap ? flags.at("heap-profile-out") : std::string());
  }

  // Live introspection: --status-port wins over LTEE_STATUS_PORT.
  obsv::StatusServer status_server;
  int status_port = -1;
  if (auto it = flags.find("status-port"); it != flags.end()) {
    status_port = std::atoi(it->second.c_str());
  } else if (const char* env = std::getenv("LTEE_STATUS_PORT");
             env != nullptr && *env != '\0') {
    status_port = std::atoi(env);
  }
  if (status_port >= 0) {
    std::string error;
    if (!status_server.Start(static_cast<uint16_t>(status_port), &error)) {
      std::fprintf(stderr, "cannot start status server on port %d: %s\n",
                   status_port, error.c_str());
      return 1;
    }
    std::printf(
        "status server on http://localhost:%u "
        "(/metrics /report /trace /provenance /profile /memory /healthz)\n",
        status_server.port());
  }

  const bool any_file = flags.count("kb") || flags.count("corpus") ||
                        flags.count("gs-corpus") || flags.count("gold");
  std::optional<synth::SyntheticDataset> dataset;
  std::optional<kb::KnowledgeBase> kb_storage;
  std::optional<webtable::TableCorpus> corpus_storage, gs_storage;
  std::optional<std::vector<eval::GoldStandard>> gold_storage;
  kb::KnowledgeBase* kb = nullptr;
  const webtable::TableCorpus* corpus = nullptr;
  const webtable::TableCorpus* gs_corpus = nullptr;
  const std::vector<eval::GoldStandard>* gold = nullptr;

  if (any_file) {
    for (const char* required : {"kb", "corpus", "gs-corpus", "gold"}) {
      if (!flags.count(required)) return Usage();
    }
    std::ifstream kb_in(flags.at("kb"));
    kb_storage = kb::LoadKnowledgeBase(kb_in);
    std::ifstream corpus_in(flags.at("corpus"));
    corpus_storage = webtable::LoadCorpus(corpus_in);
    std::ifstream gs_in(flags.at("gs-corpus"));
    gs_storage = webtable::LoadCorpus(gs_in);
    std::ifstream gold_in(flags.at("gold"));
    gold_storage = eval::LoadGoldStandards(gold_in);
    if (!kb_storage || !corpus_storage || !gs_storage || !gold_storage) {
      std::fprintf(stderr, "failed to load inputs\n");
      return 1;
    }
    kb = &*kb_storage;
    corpus = &*corpus_storage;
    gs_corpus = &*gs_storage;
    gold = &*gold_storage;
  } else {
    synth::DatasetOptions dataset_options;
    if (auto it = flags.find("scale"); it != flags.end()) {
      dataset_options.scale = std::atof(it->second.c_str());
    }
    if (auto it = flags.find("seed"); it != flags.end()) {
      dataset_options.seed = std::strtoull(it->second.c_str(), nullptr, 10);
    }
    dataset = synth::BuildDataset(dataset_options);
    kb = &dataset->kb;
    corpus = &dataset->corpus;
    gs_corpus = &dataset->gs_corpus;
    gold = &dataset->gold;
  }

  uint64_t seed = 7;
  if (auto it = flags.find("seed"); it != flags.end()) {
    seed = std::strtoull(it->second.c_str(), nullptr, 10);
  }
  // Sample from training through changeset apply — the CPU and the
  // allocations of the pipeline itself, excluding dataset synthesis and
  // file exports.
  if (want_profile) {
    const auto hz = flags.find("profile-hz");
    std::string error;
    if (!obsv::StartProfiler(
            hz != flags.end() ? std::atoi(hz->second.c_str()) : 99, &error)) {
      return CannotStart("profiler", error);
    }
  }
  if (want_heap) {
    const auto kb = flags.find("heap-sample-kb");
    const long long sample_kb =
        kb != flags.end() ? std::atoll(kb->second.c_str()) : 64;
    std::string error;
    if (!obsv::StartHeapProfiler(static_cast<size_t>(sample_kb) * 1024,
                                 &error)) {
      return CannotStart("heap profiler", error);
    }
  }

  pipeline::PipelineOptions options;
  pipeline::LteePipeline pipe(*kb, options);
  util::Rng rng(seed);
  pipeline::TrainPipelineOnGold(&pipe, *gs_corpus, *gold, rng);

  // Enable the decision ledger only now: training probes Cluster()/Match()
  // internals and would pollute the record of the actual run.
  const bool want_prov = flags.count("provenance-out") > 0;
  if (want_prov) {
    prov::SetEnabled(true);
    prov::Clear();
  }

  std::vector<kb::ClassId> classes;
  for (const auto& gs : *gold) classes.push_back(gs.cls);
  auto run = pipe.Run(*corpus, classes);
  if (status_server.running()) {
    // Publish as soon as the pipeline finishes; the post-run stages below
    // re-publish with their counters folded in.
    status_server.PublishReport(pipeline::RunReportToJson(run.report));
  }

  pipeline::KbUpdateOptions update_options;
  if (auto it = flags.find("min-facts"); it != flags.end()) {
    update_options.min_facts =
        static_cast<size_t>(std::atoll(it->second.c_str()));
  }
  std::ofstream ntriples;
  const bool export_nt = flags.count("ntriples") > 0;
  if (export_nt) {
    ntriples.open(flags.at("ntriples"));
    if (!ntriples) {
      std::fprintf(stderr, "cannot write %s\n",
                   flags.at("ntriples").c_str());
      return 1;
    }
  }

  // Stage every class sweep against the still-immutable base KB, then
  // apply the typed changeset through the kb::Applier — the single KB
  // write path the delta ingest shares.
  pipeline::StageClassOptions stage_options;
  stage_options.dedup = flags.count("dedup") > 0;
  stage_options.update = update_options;
  stage_options.ntriples = export_nt ? &ntriples : nullptr;

  kb::Applier applier(kb);
  std::vector<size_t> merges_of_class;
  merges_of_class.reserve(run.classes.size());
  for (auto& class_run : run.classes) {
    auto staged = pipeline::StageClassRun(*kb, class_run, stage_options);
    merges_of_class.push_back(staged.dedup_merges);
    applier.Stage(std::move(staged.change));
  }
  kb::ChangeSet changes = applier.TakeStaged();
  if (export_nt && !CloseOutput(ntriples, flags.at("ntriples"))) return 1;

  // --state-out: persist everything a later `ltee_cli ingest` needs to
  // continue this run incrementally. The base KB must be written before
  // the changeset is applied below (the changeset replays against it).
  std::string state_dir;
  if (auto it = flags.find("state-out"); it != flags.end()) {
    state_dir = it->second;
    if (::mkdir(state_dir.c_str(), 0777) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "cannot create %s\n", state_dir.c_str());
      return 1;
    }
    auto write = [&state_dir](const std::string& name, auto&& saver) {
      return WriteOutput(state_dir + "/" + name, saver);
    };
    bool ok = true;
    ok &= write("base_kb.tsv",
                [&](std::ostream& out) { kb::SaveKnowledgeBase(*kb, out); });
    ok &= write("corpus.tsv",
                [&](std::ostream& out) { webtable::SaveCorpus(*corpus, out); });
    ok &= write("gs_corpus.tsv", [&](std::ostream& out) {
      webtable::SaveCorpus(*gs_corpus, out);
    });
    ok &= write("gold.tsv", [&](std::ostream& out) {
      eval::SaveGoldStandards(*gold, out);
    });
    if (!ok) return 1;
    // The trained model: ingest loads it instead of retraining.
    util::trace::ScopedSpan span("pipeline.model_save");
    const std::string path = state_dir + "/model.bin";
    std::string error;
    if (!pipeline::SavePipelineModel(pipe, classes, path, &error)) {
      std::fprintf(stderr, "cannot write model: %s\n", error.c_str());
      return 1;
    }
  }

  const kb::ApplyOutcome outcome = kb::ApplyChangeSet(kb, changes);
  if (want_profile) obsv::StopProfiler();
  if (want_heap) obsv::StopHeapProfiler();
  for (size_t i = 0; i < run.classes.size(); ++i) {
    const auto& class_run = run.classes[i];
    const kb::ClassApplyOutcome& applied = outcome.classes[i];
    std::printf("%-26s rows=%zu clusters=%d new=%zu facts=%zu merges=%zu\n",
                kb->cls(class_run.cls).name.c_str(),
                class_run.rows.rows.size(), class_run.num_clusters,
                applied.instances_added, applied.facts_added,
                merges_of_class[i]);
  }
  std::printf("total: %zu new entities, %zu facts, %zu slot fills\n",
              outcome.instances_added, outcome.facts_added,
              outcome.slot_fills);
  if (export_nt) {
    std::printf("N-Triples written to %s\n", flags.at("ntriples").c_str());
  }

  uint64_t snapshot_version = 1;
  if (auto v = flags.find("snapshot-version"); v != flags.end()) {
    snapshot_version = std::strtoull(v->second.c_str(), nullptr, 10);
  }

  // The enriched KB (slot fills + new entities applied above) as a
  // binary serving snapshot, ready for `ltee_cli serve`.
  if (auto it = flags.find("publish-snapshot"); it != flags.end()) {
    std::string error;
    if (!serve::SaveSnapshotFile(*kb, snapshot_version, it->second,
                                 &error)) {
      std::fprintf(stderr, "cannot publish snapshot: %s\n", error.c_str());
      return 1;
    }
    std::printf("snapshot v%llu written to %s (%zu instances)\n",
                static_cast<unsigned long long>(snapshot_version),
                it->second.c_str(), kb->num_instances());
  }

  if (!state_dir.empty()) {
    pipeline::DeltaState state;
    state.seed = seed;
    state.dedup = stage_options.dedup;
    state.min_facts = update_options.min_facts;
    state.snapshot_version = snapshot_version;
    state.classes = classes;
    state.mappings = run.mappings;
    state.feedback = run.feedback;
    state.changes = std::move(changes);
    if (!WriteOutput(state_dir + "/state.tsv", [&](std::ostream& out) {
          pipeline::SaveDeltaState(state, out);
        })) {
      return 1;
    }
    std::printf("delta state written to %s\n", state_dir.c_str());
  }

  std::string ledger;
  if (want_prov) {
    // Fold the post-run stage counters into the quality gauges before the
    // report snapshot below.
    prov::RefreshQualityGauges();
    ledger = prov::ExportJsonLines();
    const std::string& path = flags.at("provenance-out");
    if (!WriteOutput(path, [&](std::ostream& out) { out << ledger; })) {
      return 1;
    }
    std::printf("provenance ledger written to %s (%zu events)\n",
                path.c_str(), prov::EventCount());
  }

  // Re-snapshot so the post-run stages (dedup, slot filling, KB update)
  // are part of the exported/published report.
  run.report.metrics = util::Metrics().Snapshot();
  if (status_server.running()) {
    status_server.PublishReport(pipeline::RunReportToJson(run.report));
    if (want_prov) status_server.PublishProvenance(ledger);
  }
  if (auto it = flags.find("metrics-out"); it != flags.end()) {
    if (!WriteOutput(it->second, [&](std::ostream& out) {
          out << pipeline::RunReportToJson(run.report) << "\n";
        })) {
      return 1;
    }
    std::printf("metrics written to %s\n", it->second.c_str());
  }
  if (want_trace) {
    const std::string& path = flags.at("trace-out");
    if (!WriteOutput(path, [](std::ostream& out) {
          util::trace::ExportChromeTrace(out);
        })) {
      return 1;
    }
    std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                path.c_str());
  }
  if (want_profile) {
    const std::string& path = flags.at("profile-out");
    const obsv::ProfileStats stats = obsv::CurrentProfileStats();
    if (!ExportSamples(path, &obsv::CollectCollapsedProfile,
                       &obsv::ResetProfiler)) {
      return 1;
    }
    std::printf(
        "profile written to %s (%llu samples @ %d Hz, %llu dropped; "
        "feed to flamegraph.pl or ltee_cli analyze-profile)\n",
        path.c_str(), static_cast<unsigned long long>(stats.samples),
        stats.hz, static_cast<unsigned long long>(stats.dropped));
  }
  if (want_heap) {
    const std::string& path = flags.at("heap-profile-out");
    const obsv::HeapProfileStats stats = obsv::CurrentHeapProfileStats();
    if (!ExportSamples(path, &obsv::CollectCollapsedHeapProfile,
                       &obsv::ResetHeapProfiler)) {
      return 1;
    }
    std::printf(
        "heap profile written to %s (%llu sampled allocations, ~1 per "
        "%zu KB, %llu dropped; feed to flamegraph.pl or ltee_cli "
        "analyze-memory)\n",
        path.c_str(), static_cast<unsigned long long>(stats.samples),
        stats.sample_kb, static_cast<unsigned long long>(stats.dropped));
  }
  obsv::DisarmCrashFlush();
  if (status_server.running()) {
    // Give late scrapers a beat if requested, then shut down cleanly.
    if (auto it = flags.find("status-linger"); it != flags.end()) {
      const int seconds = std::atoi(it->second.c_str());
      std::printf("status server lingering %ds for final scrapes\n",
                  seconds);
      std::this_thread::sleep_for(std::chrono::seconds(seconds));
    }
    status_server.Stop();
  }
  return 0;
}

/// `ltee_cli ingest`: incremental continuation of a `run --state-out`.
/// Loads the persisted state and the run's trained model, appends the
/// delta tables, reruns the scoped pipeline (only classes the new tables
/// affect), merges the staged changes into the cumulative changeset,
/// applies it to a fresh copy of the base KB, optionally publishes the
/// result as the next snapshot version, and rewrites the state directory
/// for the ingest after this one. A missing or corrupt model fails the
/// ingest before anything is written.
int Ingest(const std::map<std::string, std::string>& flags) {
  auto state_it = flags.find("state");
  auto delta_it = flags.find("delta");
  if (state_it == flags.end() || delta_it == flags.end()) return Usage();
  const std::string dir = state_it->second;

  auto open = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return in;
  };
  std::ifstream kb_in = open(dir + "/base_kb.tsv");
  std::ifstream corpus_in = open(dir + "/corpus.tsv");
  std::ifstream state_in = open(dir + "/state.tsv");
  std::ifstream delta_in = open(delta_it->second);
  if (!kb_in || !corpus_in || !state_in || !delta_in) return 1;
  auto kb = kb::LoadKnowledgeBase(kb_in);
  auto corpus = webtable::LoadCorpus(corpus_in);
  auto state = pipeline::LoadDeltaState(state_in);
  auto delta_corpus = webtable::LoadCorpus(delta_in);
  if (!kb || !corpus || !state || !delta_corpus) {
    std::fprintf(stderr, "failed to load state from %s\n", dir.c_str());
    return 1;
  }
  std::vector<webtable::WebTable> batch;
  batch.reserve(delta_corpus->size());
  for (const webtable::WebTable& table : delta_corpus->tables()) {
    batch.push_back(table);
  }

  // Reconstruct the exact pipeline of the original run: same KB, same
  // options, the trained model it saved — the delta diff is only sound
  // when the trained components match bit for bit.
  pipeline::PipelineOptions options;
  pipeline::LteePipeline pipe(*kb, options);
  {
    util::trace::ScopedSpan span("pipeline.model_load");
    std::string error;
    if (!pipeline::LoadPipelineModel(dir + "/model.bin", state->classes,
                                     &pipe, &error)) {
      std::fprintf(stderr, "cannot load model: %s\n", error.c_str());
      return 1;
    }
  }

  // Like `run`: the ledger records the ingest only.
  const bool want_prov = flags.count("ledger") > 0;
  if (want_prov) {
    prov::SetEnabled(true);
    prov::Clear();
  }

  auto result =
      pipeline::DeltaIngest(pipe, &*corpus, std::move(batch), &*state);
  std::printf("ingested %zu tables; recomputed %zu of %zu classes\n",
              result.new_tables, result.recomputed.size(),
              state->classes.size());
  for (kb::ClassId cls : result.recomputed) {
    std::printf("  recomputed %s\n", kb->cls(cls).name.c_str());
  }

  // Apply the merged cumulative changeset to the (still base) KB — this
  // reproduces what a full run over the grown corpus would have built.
  const kb::ApplyOutcome outcome = kb::ApplyChangeSet(&*kb, state->changes);
  std::printf("total: %zu new entities, %zu facts, %zu slot fills\n",
              outcome.instances_added, outcome.facts_added,
              outcome.slot_fills);

  uint64_t snapshot_version = state->snapshot_version + 1;
  if (auto v = flags.find("snapshot-version"); v != flags.end()) {
    snapshot_version = std::strtoull(v->second.c_str(), nullptr, 10);
  }
  if (auto it = flags.find("publish-snapshot"); it != flags.end()) {
    std::string error;
    if (!serve::SaveSnapshotFile(*kb, snapshot_version, it->second,
                                 &error)) {
      std::fprintf(stderr, "cannot publish snapshot: %s\n", error.c_str());
      return 1;
    }
    std::printf("snapshot v%llu written to %s (%zu instances)\n",
                static_cast<unsigned long long>(snapshot_version),
                it->second.c_str(), kb->num_instances());
    state->snapshot_version = snapshot_version;
  }

  if (want_prov) {
    prov::RefreshQualityGauges();
    const std::string& path = flags.at("ledger");
    if (!WriteOutput(path, [](std::ostream& out) {
          out << prov::ExportJsonLines();
        })) {
      return 1;
    }
    std::printf("provenance ledger written to %s (%zu events)\n",
                path.c_str(), prov::EventCount());
  }

  // Rewrite the grown corpus and the updated state so the next ingest
  // continues from here (base_kb/gs_corpus/gold are unchanged: the
  // changeset stays cumulative against the original base KB, and
  // model.bin is immutable).
  if (!WriteOutput(dir + "/corpus.tsv", [&](std::ostream& out) {
        webtable::SaveCorpus(*corpus, out);
      }) ||
      !WriteOutput(dir + "/state.tsv", [&](std::ostream& out) {
        pipeline::SaveDeltaState(*state, out);
      })) {
    return 1;
  }
  std::printf("delta state updated in %s\n", dir.c_str());
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;

void HandleServeSignal(int) { g_serve_stop = 1; }

/// `ltee_cli serve`: loads a snapshot file and answers /kb/* queries
/// (plus the introspection endpoints of StatusServer, so the
/// `ltee.serve.*` metrics are scrapable at /metrics) until SIGINT or
/// SIGTERM.
int Serve(const std::map<std::string, std::string>& flags) {
  auto snapshot_it = flags.find("snapshot");
  if (snapshot_it == flags.end()) return Usage();

  // Request observability: --trace-out turns tracing on (every request
  // gets an http.request span carrying its trace id) and exports the
  // buffers on shutdown; --access-log writes the request ring as JSON
  // lines; --slow-ms lowers/raises the slow-request WARNING threshold.
  // All three also flush on a crash, which is when a serving process
  // needs them most.
  const std::string trace_out =
      flags.count("trace-out") ? flags.at("trace-out") : std::string();
  const std::string access_log_out =
      flags.count("access-log") ? flags.at("access-log") : std::string();
  if (!trace_out.empty()) util::trace::SetEnabled(true);
  if (auto it = flags.find("slow-ms"); it != flags.end()) {
    obsv::GlobalAccessLog().SetSlowThresholdMs(std::atof(it->second.c_str()));
  }
  if (!trace_out.empty() || !access_log_out.empty()) {
    obsv::ArmCrashFlush(trace_out, std::string(), access_log_out);
  }
  size_t shards = 4;
  if (auto it = flags.find("shards"); it != flags.end()) {
    shards = static_cast<size_t>(std::atoll(it->second.c_str()));
  }
  std::string error;
  auto snapshot = serve::LoadSnapshot(snapshot_it->second, shards, &error);
  if (snapshot == nullptr) {
    std::fprintf(stderr, "cannot load snapshot: %s\n", error.c_str());
    return 1;
  }

  serve::QueryEngineOptions engine_options;
  if (auto it = flags.find("cache-capacity"); it != flags.end()) {
    engine_options.cache_capacity_per_shard = std::max<size_t>(
        1, static_cast<size_t>(std::atoll(it->second.c_str())) /
               engine_options.cache_shards);
  }
  serve::QueryEngine engine(engine_options);
  engine.Publish(snapshot);

  size_t workers = 4;
  if (auto it = flags.find("workers"); it != flags.end()) {
    workers = static_cast<size_t>(std::atoll(it->second.c_str()));
  }
  obsv::StatusServer status_server(workers);
  serve::RegisterKbEndpoints(&status_server.http(), &engine);
  int port = 0;
  if (auto it = flags.find("port"); it != flags.end()) {
    port = std::atoi(it->second.c_str());
  }
  // Before the server starts: a SIGTERM right after the readiness line
  // (or while a full stdout pipe blocks it) must still stop cleanly.
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  if (!status_server.Start(static_cast<uint16_t>(port), &error)) {
    std::fprintf(stderr, "cannot start kb service on port %d: %s\n", port,
                 error.c_str());
    return 1;
  }
  std::printf("kb service on http://localhost:%u (snapshot v%llu, "
              "%zu entities, %zu shards; /kb/entity /kb/search /kb/classes "
              "/kb/snapshot /metrics /stats /healthz)\n",
              status_server.port(),
              static_cast<unsigned long long>(snapshot->version()),
              snapshot->num_entities(), snapshot->num_shards());
  std::fflush(stdout);

  // --linger bounds the lifetime for scripted smoke tests; without it the
  // service runs until a signal arrives.
  double linger = -1.0;
  if (auto it = flags.find("linger"); it != flags.end()) {
    linger = std::atof(it->second.c_str());
  }
  // --watch: poll the snapshot file and republish on change. The writer
  // side is atomic (tmp + rename), so a changed mtime/size always refers
  // to a complete file; Publish() is the RCU swap — in-flight readers
  // keep their version, new requests see the new one, no stalls.
  const bool watch = flags.count("watch") > 0;
  const std::string& snapshot_path = snapshot_it->second;
  struct stat watch_stat {};
  if (watch) ::stat(snapshot_path.c_str(), &watch_stat);
  uint64_t published_version = snapshot->version();
  int ticks = 0;
  const auto start = std::chrono::steady_clock::now();
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (watch && ++ticks % 4 == 0) {
      struct stat st {};
      if (::stat(snapshot_path.c_str(), &st) == 0 &&
          (st.st_mtim.tv_sec != watch_stat.st_mtim.tv_sec ||
           st.st_mtim.tv_nsec != watch_stat.st_mtim.tv_nsec ||
           st.st_size != watch_stat.st_size)) {
        watch_stat = st;
        auto reloaded = serve::LoadSnapshot(snapshot_path, shards, &error);
        if (reloaded == nullptr) {
          std::fprintf(stderr, "watch: cannot reload snapshot: %s\n",
                       error.c_str());
        } else if (reloaded->version() != published_version) {
          engine.Publish(reloaded);
          published_version = reloaded->version();
          std::printf("published snapshot v%llu (%zu entities)\n",
                      static_cast<unsigned long long>(published_version),
                      reloaded->num_entities());
          std::fflush(stdout);
        }
      }
    }
    if (linger >= 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= linger) {
      break;
    }
  }
  status_server.Stop();

  // Normal shutdown: write the artifacts ourselves and disarm the crash
  // handlers so they do not write a second time.
  bool ok = true;
  if (!trace_out.empty()) {
    if (WriteOutput(trace_out, [](std::ostream& out) {
          out << util::trace::ExportChromeTrace() << "\n";
        })) {
      std::printf("request trace written to %s\n", trace_out.c_str());
    } else {
      ok = false;
    }
  }
  if (!access_log_out.empty()) {
    if (WriteOutput(access_log_out, [](std::ostream& out) {
          out << obsv::GlobalAccessLog().ToJsonLines();
        })) {
      std::printf("access log (%zu entries) written to %s\n",
                  obsv::GlobalAccessLog().size(), access_log_out.c_str());
    } else {
      ok = false;
    }
  }
  obsv::DisarmCrashFlush();

  std::printf("kb service stopped\n");
  return ok ? 0 : 1;
}

/// `ltee_cli get`: loopback HTTP client for scripts on hosts without
/// curl. Prints the body; exits 0 only on status 200 (and, with
/// --expect-json, a body that parses as JSON).
int Get(const std::map<std::string, std::string>& flags) {
  auto port_it = flags.find("port");
  auto path_it = flags.find("path");
  if (port_it == flags.end() || path_it == flags.end()) return Usage();
  int status = 0;
  std::string body, error, response_traceparent;
  obsv::HttpGetOptions options;
  if (auto it = flags.find("traceparent"); it != flags.end()) {
    options.traceparent = it->second;
  }
  if (!obsv::HttpGet(static_cast<uint16_t>(std::atoi(port_it->second.c_str())),
                     path_it->second, options, &status, &body,
                     &response_traceparent, &error)) {
    std::fprintf(stderr, "get %s: %s\n", path_it->second.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("%s\n", body.c_str());
  if (flags.count("show-traceparent")) {
    // stderr so the body on stdout stays pipeable.
    std::fprintf(stderr, "traceparent: %s\n", response_traceparent.c_str());
  }
  if (flags.count("expect-json") &&
      !ltee::util::JsonIsValid(body, &error)) {
    std::fprintf(stderr, "get %s: body is not valid JSON: %s\n",
                 path_it->second.c_str(), error.c_str());
    return 1;
  }
  if (status != 200) {
    std::fprintf(stderr, "get %s: HTTP %d\n", path_it->second.c_str(),
                 status);
    return 1;
  }
  return 0;
}

int Explain(const std::map<std::string, std::string>& flags,
            const std::string& query) {
  auto it = flags.find("ledger");
  if (it == flags.end()) return Usage();
  std::string ledger;
  if (!ReadInput(it->second, &ledger)) return 1;

  prov::ExplainOptions options;
  options.entity = query;
  if (auto p = flags.find("property"); p != flags.end()) {
    options.property = p->second;
  }
  options.first_only = flags.count("first") > 0;
  options.json = flags.count("json") > 0;
  const prov::ExplainResult result = prov::Explain(ledger, options);
  if (!result.ok) {
    std::fprintf(stderr, "%s: %s\n", it->second.c_str(),
                 result.error.c_str());
    return 1;
  }
  std::fputs(result.output.c_str(), stdout);
  return result.facts_found > 0 ? 0 : 1;
}

int AnalyzeTrace(const std::map<std::string, std::string>& flags,
                 const std::string& path) {
  std::string trace;
  if (!ReadInput(path, &trace)) return 1;

  obsv::TraceAnalysis analysis;
  std::string error;
  if (!obsv::AnalyzeChromeTrace(trace, &analysis, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (flags.count("json")) {
    std::printf("%s\n", obsv::AnalysisToJson(analysis).c_str());
  } else {
    std::fputs(obsv::AnalysisToText(analysis).c_str(), stdout);
  }
  return 0;
}

/// `analyze-profile` and, with `heap`, `analyze-memory`: both read the
/// collapsed stack lines with the CPU parser; a heap profile adds its
/// header and span table.
int AnalyzeProfile(const std::map<std::string, std::string>& flags,
                   const std::string& path, bool heap) {
  std::string content;
  if (!ReadInput(path, &content)) return 1;

  obsv::ProfileAnalysis analysis;
  std::string error;
  if (!obsv::ParseCollapsedProfile(content, &analysis, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  obsv::HeapProfileHeader header;
  if (heap && !obsv::ParseHeapProfileHeader(content, &header)) {
    std::fprintf(stderr,
                 "%s: not a heap profile (no `heap=1` header — use "
                 "analyze-profile for CPU profiles)\n",
                 path.c_str());
    return 1;
  }
  size_t top_n = 20;
  if (auto it = flags.find("top"); it != flags.end()) {
    top_n = static_cast<size_t>(std::atoll(it->second.c_str()));
  }
  if (flags.count("json")) {
    std::printf("%s\n",
                heap ? obsv::HeapAnalysisToJson(analysis, header, top_n).c_str()
                     : obsv::ProfileAnalysisToJson(analysis, top_n).c_str());
  } else {
    std::fputs(heap ? obsv::HeapAnalysisToText(analysis, header, top_n).c_str()
                    : obsv::ProfileAnalysisToText(analysis, top_n).c_str(),
               stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (auto it = flags.find("log-level"); it != flags.end()) {
    const auto level = ltee::util::ParseLogLevel(it->second);
    if (!level) {
      std::fprintf(stderr, "unknown log level '%s'\n", it->second.c_str());
      return Usage();
    }
    ltee::util::SetLogLevel(*level);
  }
  if (command == "generate") return Generate(flags);
  if (command == "stats") return Stats(flags);
  if (command == "run") return Run(flags);
  if (command == "ingest") return Ingest(flags);
  if (command == "serve") return Serve(flags);
  if (command == "get") return Get(flags);
  if (command == "explain") {
    return Explain(flags, FirstPositional(argc, argv, 2));
  }
  if (command == "analyze-trace" || command == "analyze-profile" ||
      command == "analyze-memory") {
    const std::string path = FirstPositional(argc, argv, 2);
    if (path.empty()) return Usage();
    if (command == "analyze-trace") return AnalyzeTrace(flags, path);
    return AnalyzeProfile(flags, path, command == "analyze-memory");
  }
  return Usage();
}
