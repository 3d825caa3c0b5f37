// Micro-benchmarks (google-benchmark) of the hot primitives behind the
// pipeline's scalability story: string similarities (raw-string and
// interned-token-id variants), tokenize/intern, value parsing, label index
// retrieval, correlation clustering, and random forest prediction — plus
// an end-to-end prepared-vs-raw pipeline timing. Not a paper table — these
// document the cost model behind the Section 3.2 scalability design
// (prepared corpus + parallel greedy + KLj + blocking).
//
// Output: one JSON line per benchmark on stdout via bench::EmitResult
// (the `BENCH_*.json` perf trajectory format shared by every bench), e.g.
//   {"bench":"BM_MongeElkanIds","metric":"ns_per_iter","value":132.4,"iters":5000000}
// Human-readable console output goes to stderr.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "cluster/correlation_clusterer.h"
#include "obsv/memtrack.h"
#include "obsv/profiler.h"
#include "index/label_index.h"
#include "ml/random_forest.h"
#include "pipeline/pipeline.h"
#include "pipeline/training.h"
#include "prov/ledger.h"
#include "synth/dataset.h"
#include "types/value_parser.h"
#include "util/random.h"
#include "util/similarity.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/token_dictionary.h"
#include "webtable/prepared_corpus.h"

namespace {

using namespace ltee;

void BM_Levenshtein(benchmark::State& state) {
  const std::string a = "gridiron football player";
  const std::string b = "gridiron foot ball players";
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_MongeElkan(benchmark::State& state) {
  const std::string a = "John Ronald Smith";
  const std::string b = "Jon R. Smith";
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::MongeElkanLevenshtein(a, b));
  }
}
BENCHMARK(BM_MongeElkan);

void BM_Tokenize(benchmark::State& state) {
  const std::string s = "The Quick Brown Fox; Jumps over 42 lazy-dogs!";
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Tokenize(s));
  }
}
BENCHMARK(BM_Tokenize);

void BM_TokenizeAndIntern(benchmark::State& state) {
  util::TokenDictionary dict;
  const std::string s = "the quick brown fox jumps over 42 lazy dogs";
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.InternTokens(s));
  }
}
BENCHMARK(BM_TokenizeAndIntern);

void BM_InternHotToken(benchmark::State& state) {
  util::TokenDictionary dict;
  dict.Intern("springfield");
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.Intern("springfield"));
  }
}
BENCHMARK(BM_InternHotToken);

/// The raw-string kernels re-tokenize and hash per call; the token-id
/// overloads below are what the prepared corpus feeds the hot paths.
void BM_JaccardStrings(benchmark::State& state) {
  const std::vector<std::string> a = {"john", "ronald", "smith"};
  const std::vector<std::string> b = {"jon", "r", "smith"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::JaccardSimilarity(a, b));
  }
}
BENCHMARK(BM_JaccardStrings);

void BM_JaccardIds(benchmark::State& state) {
  util::TokenDictionary dict;
  const auto a = util::SortedUnique(dict.InternTokens("john ronald smith"));
  const auto b = util::SortedUnique(dict.InternTokens("jon r smith"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::JaccardSimilarity(a, b));
  }
}
BENCHMARK(BM_JaccardIds);

void BM_MongeElkanIds(benchmark::State& state) {
  util::TokenDictionary dict;
  const auto a = dict.InternTokens("john ronald smith");
  const auto b = dict.InternTokens("jon r smith");
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::MongeElkanLevenshtein(a, b, dict));
  }
}
BENCHMARK(BM_MongeElkanIds);

void BM_CosineBinaryIds(benchmark::State& state) {
  util::TokenDictionary dict;
  const auto a =
      util::SortedUnique(dict.InternTokens("gridiron football player usa"));
  const auto b =
      util::SortedUnique(dict.InternTokens("american football players"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::CosineBinary(a, b));
  }
}
BENCHMARK(BM_CosineBinaryIds);

void BM_ParseDate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(types::ParseDate("September 21, 1987"));
  }
}
BENCHMARK(BM_ParseDate);

void BM_ClassifyCell(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(types::ClassifyCell("1,234,567"));
  }
}
BENCHMARK(BM_ClassifyCell);

void BM_LabelIndexSearch(benchmark::State& state) {
  index::LabelIndex index;
  util::Rng rng(1);
  const char* first[] = {"spring", "oak", "maple", "cedar", "river", "lake"};
  const char* second[] = {"field", "ton", "ville", "burg", "port", "dale"};
  for (uint32_t i = 0; i < static_cast<uint32_t>(state.range(0)); ++i) {
    std::string label = std::string(first[rng.NextBounded(6)]) +
                        second[rng.NextBounded(6)] + " " +
                        std::to_string(i % 97);
    index.Add(i, label);
  }
  index.Build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search("springfield 42", 10));
  }
}
BENCHMARK(BM_LabelIndexSearch)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CorrelationClustering(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int> truth(n);
  for (int i = 0; i < n; ++i) truth[i] = i / 8;  // clusters of 8
  auto sim = [&truth](int i, int j) {
    return truth[i] == truth[j] ? 1.0 : -1.0;
  };
  // Blocks mirror the clusters plus a noise block, as label blocking does.
  std::vector<std::vector<int32_t>> blocks(n);
  for (int i = 0; i < n; ++i) {
    blocks[i] = {truth[i], static_cast<int32_t>(10000 + i % 13)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::ClusterCorrelation(n, sim, blocks));
  }
}
BENCHMARK(BM_CorrelationClustering)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RandomForestPredict(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    x.push_back({rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
                 rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
    y.push_back(x.back()[0] > 0.5 ? 1.0 : -1.0);
  }
  ml::RandomForestRegressor forest;
  forest.Train(x, y, rng);
  const std::vector<double> probe = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(probe));
  }
}
BENCHMARK(BM_RandomForestPredict);

/// Emits one JSON line per benchmark run on stdout (the machine-readable
/// perf trajectory) and a short human-readable line on stderr.
class JsonLineReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    std::fprintf(stderr, "# %d CPU(s), %.1f MHz\n", context.cpu_info.num_cpus,
                 context.cpu_info.cycles_per_second / 1e6);
    return true;
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        std::fprintf(stderr, "# ERROR %s\n", run.benchmark_name().c_str());
        continue;
      }
      bench::EmitResult(run.benchmark_name(), "ns_per_iter", run.GetAdjustedRealTime(), "ns", static_cast<long long>(run.iterations));
      std::fprintf(stderr, "%-40s %12.1f ns\n", run.benchmark_name().c_str(),
                   run.GetAdjustedRealTime());
    }
    std::fflush(stdout);
  }
};

void EmitSeconds(const char* name, double seconds) {
  bench::EmitResult(name, "seconds", seconds, "seconds");
  std::fprintf(stderr, "%-40s %12.3f s\n", name, seconds);
}

/// End-to-end prepared-vs-raw timing. "Raw" means the pipeline receives a
/// corpus it has never seen: Run pays the full PreparedCorpus build
/// (tokenize + intern + typed parses) inside the timed region, which is
/// exactly the work the pre-refactor pipeline re-derived on the fly.
/// "Prepared" reruns on the now-memoized corpus and times the pipeline
/// proper. The standalone PreparedCorpus build is reported separately so
/// the trajectory can watch the one-time pass in isolation.
void RunEndToEndTimings() {
  using namespace ltee;
  synth::DatasetOptions dopt;
  dopt.scale = bench::ScaleOrDefault(0.002);
  dopt.seed = bench::kSeed;
  const auto ds = synth::BuildDataset(dopt);
  std::fprintf(stderr, "# e2e dataset: scale=%g, %zu gold tables\n",
               dopt.scale, ds.gs_corpus.size());

  {
    util::WallTimer timer;
    webtable::PreparedCorpus prepared(ds.gs_corpus);
    EmitSeconds("E2E_PrepareCorpus", timer.ElapsedSeconds());
  }

  pipeline::PipelineOptions options;
  pipeline::LteePipeline pipe(ds.kb, options);
  util::Rng rng(41);
  pipeline::TrainPipelineOnGold(&pipe, ds.gs_corpus, ds.gold, rng);
  std::vector<kb::ClassId> classes;
  for (const auto& gs : ds.gold) classes.push_back(gs.cls);

  // A fresh copy of the gold corpus: same tables, different identity, so
  // the pipeline's per-corpus memo misses and Run prepares from raw.
  webtable::TableCorpus raw_corpus;
  for (const auto& table : ds.gs_corpus.tables()) raw_corpus.Add(table);

  {
    util::WallTimer timer;
    auto run = pipe.Run(raw_corpus, classes);
    benchmark::DoNotOptimize(run);
    EmitSeconds("E2E_PipelineRunRaw", timer.ElapsedSeconds());
  }
  {
    util::WallTimer timer;
    auto run = pipe.Run(raw_corpus, classes);
    benchmark::DoNotOptimize(run);
    EmitSeconds("E2E_PipelineRunPrepared", timer.ElapsedSeconds());
  }
  {
    // Ledger-enabled rerun on the memoized corpus: the decision-provenance
    // overhead is the delta to E2E_PipelineRunPrepared (the prov design
    // target is < 5% end to end, ~0 when disabled).
    prov::SetEnabled(true);
    prov::Clear();
    util::WallTimer timer;
    auto run = pipe.Run(raw_corpus, classes);
    benchmark::DoNotOptimize(run);
    EmitSeconds("E2E_PipelineRunProvenance", timer.ElapsedSeconds());
    std::fprintf(stderr, "# provenance events recorded: %zu\n",
                 prov::EventCount());
    prov::SetEnabled(false);
    prov::Clear();
  }
  {
    // Sampling-profiler overhead: the same prepared-corpus run with and
    // without 99 Hz SIGPROF sampling. Min-of-3 per mode so machine-load
    // noise doesn't masquerade as overhead, clamped at zero (the
    // sampled run beating the unsampled one is noise, not a speedup).
    // The "pct" unit gates this upward in report_diff against the
    // absolute --min-pct floor: sampling must stay under 3%.
    const double off_seconds = bench::MinWallSeconds(3, [&] {
      auto run = pipe.Run(raw_corpus, classes);
      benchmark::DoNotOptimize(run);
    });
    double on_seconds = off_seconds;
    std::string error;
    if (obsv::StartProfiler(99, &error)) {
      on_seconds = bench::MinWallSeconds(3, [&] {
        auto run = pipe.Run(raw_corpus, classes);
        benchmark::DoNotOptimize(run);
      });
      obsv::StopProfiler();
      const obsv::ProfileStats stats = obsv::CurrentProfileStats();
      std::fprintf(stderr, "# profiler: %llu samples, %llu dropped\n",
                   static_cast<unsigned long long>(stats.samples),
                   static_cast<unsigned long long>(stats.dropped));
      obsv::ResetProfiler();
    } else {
      std::fprintf(stderr, "# profiler unavailable: %s\n", error.c_str());
    }
    const double overhead_pct =
        off_seconds > 0.0
            ? std::max(0.0, (on_seconds - off_seconds) / off_seconds * 100.0)
            : 0.0;
    bench::EmitResult("E2E_ProfilerOverhead", "profiler_overhead_pct",
                      overhead_pct, "pct");
    std::fprintf(stderr, "%-40s %12.2f %%\n", "E2E_ProfilerOverhead",
                 overhead_pct);
  }
  {
    // Memory-tracking overhead: the corpus-prepare pass (tokenize +
    // intern + typed parses — the most allocation-dense deterministic
    // work in the pipeline, so a conservative stand-in) with and
    // without the operator-new interposition counters. Counters-only
    // mode: no span attribution and no heap-profiler sampling — exactly
    // the always-on --memtrack cost (span attribution is session-scoped
    // and costs ~3x the bare counters). Gated like the
    // profiler: "pct" unit, <3% budget via the --min-pct floor. On
    // builds without interposition (sanitizer) the enable is a no-op
    // and this measures noise ≈ 0. Deliberately single-threaded and
    // measured in interleaved paired rounds: the tracked delta is ~1 ns
    // per allocation, small enough that thread-pool scheduling noise or
    // clock drift across two back-to-back timing blocks would swamp it.
    const auto one_run = [&] {
      // 5 reps per timed region: one prepare is ~10 ms, too close to
      // scheduler granularity for a percent-level comparison.
      for (int rep = 0; rep < 5; ++rep) {
        webtable::PreparedCorpus prepared(ds.gs_corpus);
        benchmark::DoNotOptimize(prepared);
      }
    };
    // One warm-up in each mode so arena layout (tracked blocks carry a
    // 16-byte header) settles before anything is timed.
    one_run();
    obsv::SetMemTrackingEnabled(true);
    one_run();
    obsv::SetMemTrackingEnabled(false);
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 12; ++round) {
      // Alternate which mode runs first: whichever run follows the
      // other inherits a warmer cache/arena, and a fixed order would
      // fold that into the delta. The estimator is the minimum over
      // rounds of the PER-ROUND on/off ratio, not a ratio of two
      // independent global minima: the two modes of a round run
      // adjacently inside the same machine phase (frequency state,
      // page-cache pressure), so a real hook cost inflates every
      // round's ratio and survives the min, while a noise spike — which
      // only ever lands on one side of one round — is filtered out.
      double off_round;
      double on_round;
      if ((round & 1) == 0) {
        off_round = bench::MinWallSeconds(3, one_run);
        obsv::SetMemTrackingEnabled(true);
        on_round = bench::MinWallSeconds(3, one_run);
        obsv::SetMemTrackingEnabled(false);
      } else {
        obsv::SetMemTrackingEnabled(true);
        on_round = bench::MinWallSeconds(3, one_run);
        obsv::SetMemTrackingEnabled(false);
        off_round = bench::MinWallSeconds(3, one_run);
      }
      if (off_round > 0.0) {
        best_ratio = std::min(best_ratio, on_round / off_round);
      }
      std::fprintf(stderr, "# memtrack round %d: off=%.4fs on=%.4fs\n",
                   round, off_round, on_round);
    }
    const obsv::MemtrackTotals totals = obsv::GetMemtrackTotals();
    std::fprintf(stderr,
                 "# memtrack: %llu allocations, %.1f MB cumulative\n",
                 static_cast<unsigned long long>(totals.cum_allocs),
                 static_cast<double>(totals.cum_bytes) / (1024.0 * 1024.0));
    const double overhead_pct =
        std::isfinite(best_ratio)
            ? std::max(0.0, (best_ratio - 1.0) * 100.0)
            : 0.0;
    bench::EmitResult("E2E_MemtrackOverhead", "memtrack_overhead_pct",
                      overhead_pct, "pct");
    std::fprintf(stderr, "%-40s %12.2f %%\n", "E2E_MemtrackOverhead",
                 overhead_pct);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Whole-binary wall time for the perf trajectory (steady clock).
  ltee::bench::ScopedWallClock wall_clock("micro_perf");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  RunEndToEndTimings();
  benchmark::Shutdown();
  return 0;
}
