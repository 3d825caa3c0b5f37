// Perf-trajectory runner: executes bench binaries (the ones emitting
// bench::EmitResult JSON lines on stdout), collects every result line and
// appends one commit-stamped entry to a history file — the `BENCH_history
// .json` perf/metric trajectory that tools/report_diff gates on.
//
// Usage:
//   bench_history [--bench-dir DIR] [--out FILE] [--commit SHA]
//                 [--benches a,b,c] [--quick] [--scale S] [--label L]
//
// --bench-dir  directory holding the bench_* binaries (default: bench)
// --out        history file, one JSON object per line
//              (default: BENCH_history.json)
// --commit     commit stamp (default: `git rev-parse --short HEAD`,
//              "unknown" when not in a git checkout); the entry also
//              records whether the work tree was dirty at run time, so a
//              trajectory point taken from uncommitted code is never
//              mistaken for the commit it names
// --benches    comma-separated bench names without the bench_ prefix
//              (default: a fast representative set; see kQuickSet)
// --quick      small synthetic scale (LTEE_SCALE=0.002) + the quick set,
//              run kQuickPasses times — cheap enough for a CI gate
// --scale      explicit LTEE_SCALE for the child processes
// --label      free-form label recorded in the entry (e.g. "quick")
//
// Each recorded value is the metric's median over the passes of the whole
// bench list (one pass without --quick). A wall time from one pass on a
// shared host can double under a neighbour's load spike; the median keeps
// one spike from reaching the gate, while a real slowdown shows in every
// pass and so in the median.
//
// Entry schema (one line):
//   {"commit":"<sha>","dirty":<bool>,"unix_time":<s>,"label":"..",
//    "passes":<N>,"results":[
//     {"bench":"..","metric":"..","value":..,"unit":"..",("iters":..)},..]}
// `iters` is the first pass's.
//
// Exit: 0 when every bench ran and produced at least one result line,
// 1 otherwise.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/json_parse.h"

namespace {

using ltee::util::JsonValue;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string key = arg.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = std::string("1");
    }
  }
  return flags;
}

/// Fast benches covering counts, shape statistics and wall time — the CI
/// quick gate. Pipeline-heavy benches (fig1, table11) are deliberately
/// not in it; run them explicitly via --benches for deeper trajectories.
/// The micro_perf entry filters out the google-benchmark kernels (they
/// take ~20s and their ns_per_iter numbers are too jittery to gate) and
/// keeps only the end-to-end phase, whose profiler_overhead_pct this set
/// exists to watch.
const char* const kQuickSet[] = {"table03_corpus_stats",
                                 "table05_gold_standard",
                                 "prov_quality",
                                 "serve_load",
                                 "delta_ingest",
                                 "micro_perf --benchmark_filter=NONE"};

/// Passes of the bench list with --quick.
constexpr int kQuickPasses = 3;

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Runs `command`, captures stdout. Returns false when the process could
/// not be started or exited non-zero.
bool RunAndCapture(const std::string& command, std::string* output) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output->append(buf, n);
  }
  return pclose(pipe) == 0;
}

std::string DetectCommit() {
  std::string out;
  if (RunAndCapture("git rev-parse --short HEAD 2>/dev/null", &out)) {
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    if (!out.empty()) return out;
  }
  return "unknown";
}

/// True when the work tree has uncommitted changes (any `git status
/// --porcelain` output). A failing git (not a checkout) counts as clean —
/// the commit stamp is "unknown" then anyway.
bool DetectDirty() {
  std::string out;
  if (!RunAndCapture("git status --porcelain 2>/dev/null", &out)) {
    return false;
  }
  return out.find_first_not_of(" \t\r\n") != std::string::npos;
}

/// One metric's values across the passes.
struct MetricSamples {
  std::string bench;
  std::string metric;
  std::string unit;
  std::vector<double> values;
  long long iters = -1;  // first pass's; -1 when the bench reported none
};

/// Adds one parsed result line to `samples` (first-seen order, looked up
/// through `index` by bench + metric). False when a field is missing.
bool CollectResult(const JsonValue& line, std::vector<MetricSamples>* samples,
                   std::map<std::string, size_t>* index) {
  const JsonValue* bench = line.Find("bench");
  const JsonValue* metric = line.Find("metric");
  const JsonValue* value = line.Find("value");
  if (bench == nullptr || !bench->is_string() || metric == nullptr ||
      !metric->is_string() || value == nullptr || !value->is_number()) {
    return false;
  }
  const std::string key = bench->as_string() + '\0' + metric->as_string();
  auto [it, inserted] = index->emplace(key, samples->size());
  if (inserted) {
    MetricSamples fresh;
    fresh.bench = bench->as_string();
    fresh.metric = metric->as_string();
    fresh.unit = line.StringOr("unit", "unknown");
    if (const JsonValue* iters = line.Find("iters");
        iters != nullptr && iters->is_number()) {
      fresh.iters = static_cast<long long>(iters->as_number());
    }
    samples->push_back(std::move(fresh));
  }
  (*samples)[it->second].values.push_back(value->as_number());
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Serializes one metric canonically, its value the median over the
/// passes, so the history file never inherits formatting quirks from a
/// bench binary.
void AppendResult(const MetricSamples& samples, std::string* out) {
  out->append("{\"bench\":");
  out->append(ltee::util::JsonQuote(samples.bench));
  out->append(",\"metric\":");
  out->append(ltee::util::JsonQuote(samples.metric));
  out->append(",\"value\":");
  ltee::util::AppendJsonNumber(out, Median(samples.values));
  out->append(",\"unit\":");
  out->append(ltee::util::JsonQuote(samples.unit));
  if (samples.iters >= 0) {
    out->append(",\"iters\":");
    out->append(std::to_string(samples.iters));
  }
  out->push_back('}');
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = ParseFlags(argc, argv);
  const bool quick = flags.count("quick") > 0;
  const std::string bench_dir =
      flags.count("bench-dir") ? flags.at("bench-dir") : "bench";
  const std::string out_path =
      flags.count("out") ? flags.at("out") : "BENCH_history.json";
  const std::string commit =
      flags.count("commit") ? flags.at("commit") : DetectCommit();
  const bool dirty = DetectDirty();
  const std::string label =
      flags.count("label") ? flags.at("label") : (quick ? "quick" : "");

  std::vector<std::string> benches;
  if (flags.count("benches")) {
    benches = SplitCommas(flags.at("benches"));
  } else {
    for (const char* name : kQuickSet) benches.emplace_back(name);
  }

  std::string scale;
  if (flags.count("scale")) {
    scale = flags.at("scale");
  } else if (quick) {
    scale = "0.002";
  }

  const int passes = quick ? kQuickPasses : 1;
  std::vector<MetricSamples> samples;
  std::map<std::string, size_t> index;
  bool ok = true;
  for (int pass = 1; pass <= passes; ++pass) {
    for (const std::string& bench : benches) {
      std::string command;
      if (!scale.empty()) command += "LTEE_SCALE=" + scale + " ";
      command += bench_dir + "/bench_" + bench + " 2>/dev/null";
      std::fprintf(stderr, "bench_history: pass %d/%d running %s\n", pass,
                   passes, command.c_str());
      std::string output;
      if (!RunAndCapture(command, &output)) {
        std::fprintf(stderr, "bench_history: FAILED: %s\n", command.c_str());
        ok = false;
        continue;
      }
      size_t parsed_here = 0;
      size_t start = 0;
      while (start < output.size()) {
        size_t end = output.find('\n', start);
        if (end == std::string::npos) end = output.size();
        const std::string line = output.substr(start, end - start);
        start = end + 1;
        if (line.rfind("{\"bench\"", 0) != 0) continue;
        JsonValue parsed;
        std::string error;
        if (!ltee::util::ParseJson(line, &parsed, &error)) {
          std::fprintf(stderr, "bench_history: bad result line (%s): %s\n",
                       error.c_str(), line.c_str());
          ok = false;
          continue;
        }
        if (CollectResult(parsed, &samples, &index)) {
          ++parsed_here;
        } else {
          std::fprintf(stderr,
                       "bench_history: incomplete result line: %s\n",
                       line.c_str());
          ok = false;
        }
      }
      if (parsed_here == 0) {
        std::fprintf(stderr, "bench_history: no result lines from %s\n",
                     bench.c_str());
        ok = false;
      }
    }
  }

  if (samples.empty()) {
    std::fprintf(stderr, "bench_history: nothing to record\n");
    return 1;
  }
  std::string results;
  for (const MetricSamples& metric : samples) {
    if (!results.empty()) results.push_back(',');
    AppendResult(metric, &results);
  }

  std::string entry = "{\"commit\":";
  entry += ltee::util::JsonQuote(commit);
  entry += ",\"dirty\":";
  entry += dirty ? "true" : "false";
  entry += ",\"unix_time\":";
  entry += std::to_string(static_cast<long long>(std::time(nullptr)));
  if (!label.empty()) {
    entry += ",\"label\":";
    entry += ltee::util::JsonQuote(label);
  }
  entry += ",\"passes\":";
  entry += std::to_string(passes);
  entry += ",\"results\":[";
  entry += results;
  entry += "]}";

  std::ofstream out(out_path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "bench_history: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << entry << "\n";
  std::printf(
      "bench_history: appended %zu results (median of %d) for commit %s%s "
      "to %s\n",
      samples.size(), passes, commit.c_str(),
      dirty ? " (dirty work tree)" : "", out_path.c_str());
  return ok ? 0 : 1;
}
