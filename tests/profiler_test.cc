// Sampling CPU profiler: signal-safe stack capture and symbolization,
// collapsed-profile collection with span attribution, single-capture
// serialization, the /profile endpoint's validation and busy semantics,
// and the trace-vs-profile consistency gate (the two observability
// views of the same fixed-seed run must agree on where the CPU went).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obsv/http_client.h"
#include "obsv/profiler.h"
#include "obsv/span_analytics.h"
#include "obsv/status_server.h"
#include "pipeline/pipeline.h"
#include "pipeline/training.h"
#include "test_dataset.h"
#include "util/json.h"
#include "util/stack_capture.h"
#include "util/trace.h"

namespace ltee {

/// External linkage + noinline so the frame survives optimization and
/// stays out of the anonymous namespace — dladdr (via the test binary's
/// exported symbols) can only name it then.
__attribute__((noinline)) int CaptureStackFromNamedFrame(void** frames,
                                                         int max_depth) {
  const int depth = util::CaptureStack(frames, max_depth);
  // Keep a side effect after the call so the tail call cannot replace
  // this frame on the stack.
  return depth > 0 ? depth : -1;
}

namespace {

/// Burns at least `seconds` of process CPU time (what ITIMER_PROF
/// meters), returning a value the optimizer cannot discard.
uint64_t BurnCpu(double seconds) {
  const auto start = std::chrono::steady_clock::now();
  volatile uint64_t acc = 1;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < seconds) {
    for (int i = 0; i < 10000; ++i) acc = acc * 2862933555777941757ULL + 3037;
  }
  return acc;
}

TEST(StackCapture, CapturesAndSymbolizesTheCallingFrame) {
  if (!util::StackCaptureSupported()) {
    GTEST_SKIP() << "no backtrace/dladdr on this platform";
  }
  util::WarmUpStackCapture();
  void* frames[util::kMaxStackDepth] = {};
  const int depth = CaptureStackFromNamedFrame(frames, util::kMaxStackDepth);
  ASSERT_GT(depth, 1);

  // CaptureStack excludes its own frame, so the leaf is the named helper.
  const util::SymbolizedFrame leaf = util::SymbolizeAddress(frames[0]);
  EXPECT_TRUE(leaf.known) << leaf.name;
  EXPECT_NE(leaf.name.find("CaptureStackFromNamedFrame"), std::string::npos)
      << leaf.name;

  // Every captured address symbolizes to *something* (module+offset at
  // worst, never an empty string).
  for (int i = 0; i < depth; ++i) {
    EXPECT_FALSE(util::SymbolizeAddress(frames[i]).name.empty());
  }
}

TEST(StackCapture, DemangleHandlesMangledAndPlainNames) {
  EXPECT_EQ(util::DemangleSymbol("_Z3foov"), "foo()");
  // Non-mangled input passes through untouched.
  EXPECT_EQ(util::DemangleSymbol("main"), "main");
  EXPECT_EQ(util::DemangleSymbol(""), "");
}

TEST(Profiler, CaptureAttributesSamplesToOpenSpans) {
  if (!util::StackCaptureSupported()) {
    GTEST_SKIP() << "no backtrace/dladdr on this platform";
  }
  std::string error;
  ASSERT_TRUE(obsv::StartProfiler(499, &error)) << error;
  EXPECT_TRUE(obsv::ProfilerActive());
  EXPECT_TRUE(util::trace::IsSpanTrackingEnabled());
  {
    // Opened after StartProfiler so the span-name mirror is live.
    util::trace::ScopedSpan span("test.profiler_burn");
    BurnCpu(0.4);
  }
  obsv::StopProfiler();
  EXPECT_FALSE(obsv::ProfilerActive());

  const obsv::ProfileStats stats = obsv::CurrentProfileStats();
  EXPECT_GT(stats.samples, 0u);
  EXPECT_EQ(stats.hz, 499);

  const std::string collapsed = obsv::CollectCollapsedProfile();
  EXPECT_EQ(collapsed.rfind("# ltee-profile ", 0), 0u);
  EXPECT_NE(collapsed.find("span:test.profiler_burn;"), std::string::npos);

  obsv::ProfileAnalysis analysis;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(collapsed, &analysis, &error))
      << error;
  EXPECT_EQ(analysis.hz, 499);
  EXPECT_GT(analysis.samples, 0u);
  uint64_t burn_samples = 0;
  for (const auto& span : analysis.spans) {
    if (span.name == "test.profiler_burn") burn_samples = span.samples;
  }
  // Nearly all CPU burned inside the span; leave slack for test-harness
  // frames sampled outside it.
  EXPECT_GT(burn_samples, analysis.samples / 2);

  obsv::ResetProfiler();
  EXPECT_EQ(obsv::CurrentProfileStats().samples, 0u);
  EXPECT_FALSE(util::trace::IsSpanTrackingEnabled());
}

TEST(Profiler, SecondConcurrentCaptureIsRefusedUntilReset) {
  if (!util::StackCaptureSupported()) {
    GTEST_SKIP() << "no backtrace/dladdr on this platform";
  }
  std::string error;
  ASSERT_TRUE(obsv::StartProfiler(99, &error)) << error;
  // The session is exclusive: no second start, no bounded capture.
  EXPECT_FALSE(obsv::StartProfiler(99, &error));
  EXPECT_FALSE(error.empty());
  std::string collapsed;
  EXPECT_FALSE(obsv::CaptureProfile(0.05, 99, &collapsed, &error));

  // The session stays owned through Stop and Collect — an exporter must
  // never race a new capture reusing the rings.
  obsv::StopProfiler();
  EXPECT_FALSE(obsv::CaptureProfile(0.05, 99, &collapsed, &error));
  (void)obsv::CollectCollapsedProfile();
  obsv::ResetProfiler();

  // Reset closes the session; the next bounded capture succeeds.
  ASSERT_TRUE(obsv::CaptureProfile(0.05, 99, &collapsed, &error)) << error;
  EXPECT_EQ(collapsed.rfind("# ltee-profile ", 0), 0u);
}

TEST(Profiler, ParseCollapsedComputesSelfTotalAndSpans) {
  const std::string text =
      "# ltee-profile hz=99 samples=10 dropped=2 duration_s=1.500 "
      "req_samples=3\n"
      "span:alpha;main;work;hot 6\n"
      "span:alpha;main;work 1\n"
      "span:(none);main;idle 3\n";
  obsv::ProfileAnalysis analysis;
  std::string error;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(text, &analysis, &error)) << error;
  EXPECT_EQ(analysis.hz, 99);
  EXPECT_EQ(analysis.samples, 10u);
  EXPECT_EQ(analysis.dropped, 2u);
  EXPECT_DOUBLE_EQ(analysis.duration_s, 1.5);

  // Frames sorted by self descending: hot(6), idle(3), work(1), main(0).
  ASSERT_EQ(analysis.frames.size(), 4u);
  EXPECT_EQ(analysis.frames[0].name, "hot");
  EXPECT_EQ(analysis.frames[0].self, 6u);
  EXPECT_EQ(analysis.frames[0].total, 6u);
  EXPECT_EQ(analysis.frames[1].name, "idle");
  EXPECT_EQ(analysis.frames[1].self, 3u);
  EXPECT_EQ(analysis.frames[2].name, "work");
  EXPECT_EQ(analysis.frames[2].self, 1u);
  EXPECT_EQ(analysis.frames[2].total, 7u);
  EXPECT_EQ(analysis.frames[3].name, "main");
  EXPECT_EQ(analysis.frames[3].self, 0u);
  EXPECT_EQ(analysis.frames[3].total, 10u);

  ASSERT_EQ(analysis.spans.size(), 2u);
  EXPECT_EQ(analysis.spans[0].name, "alpha");
  EXPECT_EQ(analysis.spans[0].samples, 7u);
  EXPECT_DOUBLE_EQ(analysis.spans[0].pct, 70.0);
  EXPECT_EQ(analysis.spans[1].name, "(none)");
  EXPECT_EQ(analysis.spans[1].samples, 3u);

  // Headers-only profile parses as empty; malformed stack lines fail.
  obsv::ProfileAnalysis empty;
  ASSERT_TRUE(obsv::ParseCollapsedProfile("# ltee-profile hz=99 samples=0\n",
                                          &empty, &error));
  EXPECT_TRUE(empty.frames.empty());
  obsv::ProfileAnalysis bad;
  EXPECT_FALSE(obsv::ParseCollapsedProfile("no trailing count\n", &bad,
                                           &error));
  EXPECT_FALSE(error.empty());
}

TEST(Profiler, AnalysisRendersValidJsonAndText) {
  const std::string text =
      "# ltee-profile hz=99 samples=4 dropped=0 duration_s=0.500\n"
      "span:alpha;main;hot 3\n"
      "span:(none);main 1\n";
  obsv::ProfileAnalysis analysis;
  std::string error;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(text, &analysis, &error)) << error;

  const std::string json = obsv::ProfileAnalysisToJson(analysis);
  ASSERT_TRUE(util::JsonIsValid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"top_functions\""), std::string::npos);
  EXPECT_NE(json.find("\"self_pct\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);

  const std::string report = obsv::ProfileAnalysisToText(analysis);
  EXPECT_NE(report.find("hot"), std::string::npos);
  EXPECT_NE(report.find("alpha"), std::string::npos);

  // Demangled frame names run to hundreds of characters; a row keeps
  // its name whole and still ends in a newline.
  const std::string long_name =
      "std::__detail::_Map_base<" + std::string(270, 'k') + ">::at";
  ASSERT_EQ(long_name.size(), 300u);
  ASSERT_TRUE(obsv::ParseCollapsedProfile(
      "span:alpha;main;" + long_name + " 2\n", &analysis, &error))
      << error;
  const std::string long_json = obsv::ProfileAnalysisToJson(analysis);
  EXPECT_TRUE(util::JsonIsValid(long_json, &error)) << error;
  EXPECT_NE(long_json.find(long_name), std::string::npos);
  EXPECT_NE(obsv::ProfileAnalysisToText(analysis).find(long_name + "\n"),
            std::string::npos);
}

TEST(ProfileEndpoint, ValidatesParametersAndSerializesCaptures) {
  obsv::StatusServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;

  // Malformed or out-of-range parameters are client errors, not captures.
  int status = 0;
  std::string body;
  for (const char* path :
       {"/profile?seconds=abc", "/profile?seconds=0", "/profile?seconds=31",
        "/profile?seconds=1&hz=0", "/profile?seconds=1&hz=5000"}) {
    ASSERT_TRUE(obsv::HttpGet(server.port(), path, &status, &body, &error))
        << error;
    EXPECT_EQ(status, 400) << path;
  }

  if (util::StackCaptureSupported()) {
    // While a capture session is open elsewhere the endpoint answers 503
    // (busy), never queues.
    ASSERT_TRUE(obsv::StartProfiler(99, &error)) << error;
    ASSERT_TRUE(obsv::HttpGet(server.port(), "/profile?seconds=0.1",
                              &status, &body, &error))
        << error;
    EXPECT_EQ(status, 503);
    obsv::StopProfiler();
    (void)obsv::CollectCollapsedProfile();
    obsv::ResetProfiler();

    // Happy path: keep a worker burning CPU so the bounded capture has
    // something to sample, then round-trip the collapsed body.
    std::atomic<bool> stop{false};
    std::thread burner([&stop] {
      while (!stop.load()) BurnCpu(0.05);
    });
    ASSERT_TRUE(obsv::HttpGet(server.port(), "/profile?seconds=0.3&hz=199",
                              &status, &body, &error))
        << error;
    stop.store(true);
    burner.join();
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body.rfind("# ltee-profile ", 0), 0u);
    obsv::ProfileAnalysis analysis;
    EXPECT_TRUE(obsv::ParseCollapsedProfile(body, &analysis, &error))
        << error;
    EXPECT_EQ(analysis.hz, 199);
  }
  server.Stop();
}

/// The consistency gate between the two observability views: a fixed-seed
/// pipeline run captured by BOTH the span tracer and the sampling
/// profiler must tell one story. Every span the profiler charges >= 1% of
/// CPU to must exist in the Chrome trace, and the hottest profiled span
/// must sit near the top of the trace's self-time ranking. Assertions are
/// tolerant: sampling is statistical and self-time is wall-based while
/// samples are CPU-based, so only gross disagreement fails.
TEST(ProfilerTraceConsistency, SpanAttributionAgreesWithChromeTrace) {
  if (!util::StackCaptureSupported()) {
    GTEST_SKIP() << "no backtrace/dladdr on this platform";
  }
  const auto& ds = ltee::testing::SharedDataset();

  util::trace::Clear();
  util::trace::SetEnabled(true);
  std::string error;
  ASSERT_TRUE(obsv::StartProfiler(499, &error)) << error;

  pipeline::PipelineOptions pipe_options;
  pipeline::LteePipeline pipe(ds.kb, pipe_options);
  util::Rng rng(41);
  pipeline::TrainPipelineOnGold(&pipe, ds.gs_corpus, ds.gold, rng);
  std::vector<kb::ClassId> classes;
  for (const auto& gs : ds.gold) classes.push_back(gs.cls);
  (void)pipe.Run(ds.gs_corpus, classes);

  obsv::StopProfiler();
  util::trace::SetEnabled(false);
  const std::string trace_json = util::trace::ExportChromeTrace();
  const std::string collapsed = obsv::CollectCollapsedProfile();
  obsv::ResetProfiler();

  obsv::ProfileAnalysis profile;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(collapsed, &profile, &error))
      << error;
  ASSERT_GT(profile.samples, 0u);

  obsv::TraceAnalysis trace;
  ASSERT_TRUE(obsv::AnalyzeChromeTrace(trace_json, &trace, &error)) << error;
  ASSERT_FALSE(trace.spans.empty());

  std::vector<std::string> traced_names;
  for (const auto& span : trace.spans) traced_names.push_back(span.name);
  const auto traced = [&traced_names](const std::string& name) {
    for (const auto& t : traced_names) {
      if (t == name) return true;
    }
    return false;
  };

  // Every materially-profiled span is a real traced span (the signal-safe
  // name mirror and the trace recorder saw the same ScopedSpans).
  std::vector<std::string> hot_spans;  // >= 1% of samples, "(none)" aside
  for (const auto& span : profile.spans) {
    if (span.name == "(none)" || span.pct < 1.0) continue;
    hot_spans.push_back(span.name);
    EXPECT_TRUE(traced(span.name))
        << "profiled span missing from trace: " << span.name;
  }

  // Ordering agreement, only when there is enough signal to rank: the
  // profiler's hottest span must rank in the trace's top self-time spans.
  if (profile.samples >= 50 && !hot_spans.empty()) {
    const size_t top_k = std::min<size_t>(5, traced_names.size());
    bool found = false;
    for (size_t i = 0; i < top_k; ++i) {
      if (traced_names[i] == hot_spans[0]) found = true;
    }
    EXPECT_TRUE(found) << "profiler top span " << hot_spans[0]
                       << " not in trace top-" << top_k << " self-time";
    // And of the profiler's top three spans, most appear in the trace's
    // top eight (tolerant set overlap, not strict order equality).
    size_t overlap = 0;
    const size_t trace_k = std::min<size_t>(8, traced_names.size());
    for (size_t i = 0; i < std::min<size_t>(3, hot_spans.size()); ++i) {
      for (size_t j = 0; j < trace_k; ++j) {
        if (traced_names[j] == hot_spans[i]) {
          ++overlap;
          break;
        }
      }
    }
    EXPECT_GE(2 * overlap, std::min<size_t>(3, hot_spans.size()))
        << "span rankings disagree between profiler and trace";
  }
}

}  // namespace
}  // namespace ltee
