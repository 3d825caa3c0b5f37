// ltee_top: a polling terminal dashboard over a serving process's
// GET /stats endpoint — `top` for the KB service. Each tick fetches the
// rolling-window telemetry JSON and renders live QPS, latency
// p50/p95/p99, cache hit rate, in-flight requests and the published
// snapshot version.
//
// Usage:
//   ltee_top --port PORT [--interval-ms MS] [--iterations N] [--no-clear]
//            [--profile N] [--memory N]
//
// --profile N additionally runs a live N-second CPU capture per frame
// (GET /profile?seconds=N against the same process) and renders a top-10
// hotspot panel — self-CPU% per function plus the per-span breakdown —
// beside the /stats view. A 503 (another capture in flight) is shown in
// the panel without failing the frame.
//
// --memory N does the same for the heap: a live N-second sampled heap
// capture per frame (GET /memory?seconds=N) rendered as live tracked
// bytes, per-span byte attribution and the top allocation sites by live
// sampled bytes. Requires the server to run with memory tracking
// compiled in (no sanitizer); 503-while-busy is likewise a note.
//
// --interval-ms defaults to 1000. --iterations 0 (the default) polls
// until interrupted; a positive N renders N frames then exits — that is
// what scripted smoke tests use. When stdout is a terminal the screen is
// cleared between frames (ANSI home+clear); --no-clear (or a non-tty
// stdout) appends frames instead, so output stays greppable in a pipe.
//
// Exit status: 0 when the final poll succeeded, 1 when the endpoint
// could not be reached or returned malformed JSON.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obsv/http_client.h"
#include "obsv/memtrack.h"
#include "obsv/profiler.h"
#include "util/json_parse.h"

namespace {

using ltee::util::JsonValue;

struct Options {
  int port = -1;
  int interval_ms = 1000;
  int iterations = 0;  // 0 = until interrupted
  int profile_seconds = 0;  // 0 = no hotspot panel
  int memory_seconds = 0;   // 0 = no memory panel
  bool clear = true;
};

int Usage() {
  std::fprintf(stderr,
               "usage: ltee_top --port PORT [--interval-ms MS] "
               "[--iterations N] [--no-clear] [--profile N] [--memory N]\n"
               "polls GET /stats of a `ltee_cli serve` (or `run "
               "--status-port`) process and renders live QPS, latency "
               "percentiles, cache hit rate, in-flight requests and the "
               "snapshot version; --profile N adds a top-10 CPU hotspot "
               "panel from a live N-second /profile capture per frame; "
               "--memory N adds a live-bytes / span-attribution / top "
               "allocation-site panel from an N-second /memory capture\n");
  return 2;
}

double NumAt(const JsonValue& root, const char* outer, const char* key,
             double fallback) {
  const JsonValue* section = root.Find(outer);
  return section != nullptr ? section->NumberOr(key, fallback) : fallback;
}

/// One rendered frame. Returns false when the poll or parse failed (the
/// frame then shows the error instead of numbers).
bool RenderFrame(const Options& options, int frame) {
  int status = 0;
  std::string body, error;
  if (!ltee::obsv::HttpGet(static_cast<uint16_t>(options.port), "/stats",
                           &status, &body, &error)) {
    std::printf("ltee_top: cannot reach :%d/stats: %s\n", options.port,
                error.c_str());
    return false;
  }
  if (status != 200) {
    std::printf("ltee_top: GET /stats returned HTTP %d\n", status);
    return false;
  }
  JsonValue stats;
  if (!ltee::util::ParseJson(body, &stats, &error)) {
    std::printf("ltee_top: /stats body is not JSON: %s\n", error.c_str());
    return false;
  }

  const double covered = NumAt(stats, "window", "covered_seconds", 0);
  const double requests = NumAt(stats, "window", "requests", 0);
  const double qps = NumAt(stats, "window", "qps", 0);
  const JsonValue* window = stats.Find("window");
  const JsonValue* latency =
      window != nullptr ? window->Find("latency_ms") : nullptr;
  const double p50 = latency != nullptr ? latency->NumberOr("p50", 0) : 0;
  const double p95 = latency != nullptr ? latency->NumberOr("p95", 0) : 0;
  const double p99 = latency != nullptr ? latency->NumberOr("p99", 0) : 0;
  const double lat_max = latency != nullptr ? latency->NumberOr("max", 0) : 0;
  const double hits = NumAt(stats, "cache", "hits", 0);
  const double misses = NumAt(stats, "cache", "misses", 0);
  const double evictions = NumAt(stats, "cache", "evictions", 0);
  const double hit_ratio = NumAt(stats, "cache", "hit_ratio", 0);
  const double in_flight = stats.NumberOr("in_flight", 0);
  const double version = stats.NumberOr("snapshot_version", 0);
  const double slow = NumAt(stats, "access_log", "slow", 0);
  const double slow_ms = NumAt(stats, "access_log", "slow_threshold_ms", 0);

  std::printf("ltee :%d  snapshot v%.0f  in-flight %.0f  frame %d\n",
              options.port, version, in_flight, frame);
  std::printf("window  %4.0fs covered  %8.0f requests  %10.1f qps\n",
              covered, requests, qps);
  std::printf(
      "latency p50 %8.3f ms   p95 %8.3f ms   p99 %8.3f ms   max %8.3f ms\n",
      p50, p95, p99, lat_max);
  std::printf("cache   hits %.0f  misses %.0f  evictions %.0f  "
              "hit-rate %5.1f%%\n",
              hits, misses, evictions, hit_ratio * 100.0);
  std::printf("slow    %.0f requests over %.0f ms\n", slow, slow_ms);
  return true;
}

enum class Fetch { kParsed, kBusy, kFailed };

/// The prologue both panels share: a live `seconds` capture via GET
/// /profile or /memory (`what`), parsed — with the heap header and span
/// table too when `header` is non-null. A busy sampler (503) prints as a
/// note, not a failure: another client or a --profile-out run owns the
/// only capture slot.
Fetch FetchCapture(const Options& options, const char* what, int seconds,
                   ltee::obsv::ProfileAnalysis* analysis,
                   ltee::obsv::HeapProfileHeader* header) {
  int status = 0;
  std::string body, error;
  const std::string path =
      std::string("/") + what + "?seconds=" + std::to_string(seconds);
  if (!ltee::obsv::HttpGet(static_cast<uint16_t>(options.port), path,
                           &status, &body, &error)) {
    std::printf("%s: cannot reach :%d%s: %s\n", what, options.port,
                path.c_str(), error.c_str());
    return Fetch::kFailed;
  }
  if (status == 503) {
    std::printf("%s: capture busy, retrying next frame\n", what);
    return Fetch::kBusy;
  }
  if (status != 200) {
    std::printf("%s: GET %s returned HTTP %d\n", what, path.c_str(), status);
    return Fetch::kFailed;
  }
  if (!ltee::obsv::ParseCollapsedProfile(body, analysis, &error) ||
      (header != nullptr &&
       !ltee::obsv::ParseHeapProfileHeader(body, header))) {
    std::printf("%s: malformed %s: %s\n", what,
                header != nullptr ? "heap profile" : "collapsed stacks",
                error.c_str());
    return Fetch::kFailed;
  }
  return Fetch::kParsed;
}

/// Keeps a panel narrow: long demangled names truncate on the right.
std::string PanelName(const std::string& name) {
  return name.size() > 56 ? name.substr(0, 53) + "..." : name;
}

/// The hotspot panel of one frame: a live CPU capture, then the top
/// functions by self CPU and the per-span attribution.
bool RenderProfilePanel(const Options& options) {
  ltee::obsv::ProfileAnalysis analysis;
  const Fetch fetch = FetchCapture(options, "profile", options.profile_seconds,
                                   &analysis, nullptr);
  if (fetch != Fetch::kParsed) return fetch == Fetch::kBusy;
  std::printf("hotspots %llu samples @ %d Hz over %.1fs (%llu dropped)\n",
              static_cast<unsigned long long>(analysis.samples), analysis.hz,
              analysis.duration_s,
              static_cast<unsigned long long>(analysis.dropped));
  if (analysis.samples == 0) {
    std::printf("  (idle: no CPU burned during the capture window)\n");
    return true;
  }
  const double denom = static_cast<double>(analysis.samples);
  size_t shown = 0;
  for (const auto& frame : analysis.frames) {
    if (frame.self == 0 || shown >= 10) break;
    std::printf("  %5.1f%% %6llu  %s\n",
                100.0 * static_cast<double>(frame.self) / denom,
                static_cast<unsigned long long>(frame.self),
                PanelName(frame.name).c_str());
    ++shown;
  }
  std::string spans = "spans  ";
  size_t span_count = 0;
  for (const auto& span : analysis.spans) {
    if (span_count++ >= 4) break;
    char item[96];
    std::snprintf(item, sizeof(item), " %s %.1f%%", span.name.c_str(),
                  span.pct);
    spans += item;
  }
  std::printf("%s\n", spans.c_str());
  return true;
}

/// The memory panel: a live sampled heap capture, then live tracked
/// bytes, span byte attribution and the top allocation sites by live
/// sampled bytes.
bool RenderMemoryPanel(const Options& options) {
  ltee::obsv::ProfileAnalysis analysis;
  ltee::obsv::HeapProfileHeader header;
  const Fetch fetch = FetchCapture(options, "memory", options.memory_seconds,
                                   &analysis, &header);
  if (fetch != Fetch::kParsed) return fetch == Fetch::kBusy;
  const double mb = 1024.0 * 1024.0;
  std::printf(
      "memory  live %.1f MB in %llu allocations  peak-rss %.1f MB  "
      "(%llu sampled, ~1 per %zu KB)\n",
      static_cast<double>(header.live_bytes) / mb,
      static_cast<unsigned long long>(header.live_allocs),
      static_cast<double>(header.peak_rss_kb) / 1024.0,
      static_cast<unsigned long long>(analysis.samples), header.sample_kb);
  std::string spans = "spans  ";
  size_t span_count = 0;
  for (const auto& span : header.spans) {
    if (span_count++ >= 4) break;
    char item[112];
    std::snprintf(item, sizeof(item), " %s %.1f/%.1f MB", span.span.c_str(),
                  static_cast<double>(span.live_bytes) / mb,
                  static_cast<double>(span.cum_bytes) / mb);
    spans += item;
  }
  std::printf("%s\n", spans.c_str());
  // Stack-line counts are live bytes; frame.self sums a site's own share.
  size_t shown = 0;
  for (const auto& frame : analysis.frames) {
    if (frame.self == 0 || shown >= 10) break;
    std::printf("  %8.1f KB  %s\n", static_cast<double>(frame.self) / 1024.0,
                PanelName(frame.name).c_str());
    ++shown;
  }
  if (shown == 0) {
    std::printf("  (no live sampled allocations during the window)\n");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      options.port = std::atoi(argv[++i]);
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      options.interval_ms = std::atoi(argv[++i]);
    } else if (arg == "--iterations" && i + 1 < argc) {
      options.iterations = std::atoi(argv[++i]);
    } else if (arg == "--profile" && i + 1 < argc) {
      options.profile_seconds = std::atoi(argv[++i]);
      if (options.profile_seconds < 1) return Usage();
    } else if (arg == "--memory" && i + 1 < argc) {
      options.memory_seconds = std::atoi(argv[++i]);
      if (options.memory_seconds < 1) return Usage();
    } else if (arg == "--no-clear") {
      options.clear = false;
    } else {
      return Usage();
    }
  }
  if (options.port <= 0) return Usage();
  if (options.interval_ms < 1) options.interval_ms = 1;
  const bool clear = options.clear && ::isatty(STDOUT_FILENO) != 0;

  bool ok = false;
  for (int frame = 1;
       options.iterations == 0 || frame <= options.iterations; ++frame) {
    if (clear) std::printf("\x1b[H\x1b[2J");
    ok = RenderFrame(options, frame);
    if (options.profile_seconds > 0) {
      ok = RenderProfilePanel(options) && ok;
    }
    if (options.memory_seconds > 0) {
      ok = RenderMemoryPanel(options) && ok;
    }
    std::fflush(stdout);
    if (options.iterations != 0 && frame == options.iterations) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.interval_ms));
  }
  return ok ? 0 : 1;
}
