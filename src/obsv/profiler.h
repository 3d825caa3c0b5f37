#ifndef LTEE_OBSV_PROFILER_H_
#define LTEE_OBSV_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ltee::obsv {

/// In-process sampling CPU profiler. A POSIX interval timer
/// (ITIMER_PROF) delivers SIGPROF on process CPU time; the
/// async-signal-safe handler captures the interrupted thread's raw stack
/// (util::CaptureStack) plus its innermost tracked span name and request
/// trace id (the signal-safe mirrors in util::trace) into lock-free
/// thread-sharded sample rings. Symbolization, aggregation, and all
/// allocation happen only at collect time, after sampling has stopped.
///
/// One profiler per process: Start/Stop guard a single global capture.
/// The /profile endpoint and CaptureProfile serialize on that — a second
/// concurrent capture is refused, never queued.

/// Arms the SIGPROF handler and interval timer at `hz` samples per
/// second of process CPU time (clamped to [1, 1000]). Also turns on
/// util::trace span tracking for the duration so samples carry span
/// names. Each of the 8 tid-sharded rings holds 16384 samples (~2.5
/// minutes at 99 Hz); a full ring counts further samples as dropped.
/// Returns false (with `error`) when a capture is already active or the
/// platform lacks stack-capture support.
bool StartProfiler(int hz, std::string* error);

/// True between a successful StartProfiler and the matching StopProfiler.
bool ProfilerActive();

/// Disarms the timer and handler, restores the previous SIGPROF
/// disposition, and leaves the collected samples in place for
/// CollectCollapsedProfile. Idempotent.
void StopProfiler();

/// Counters of the current (or just-stopped) capture.
struct ProfileStats {
  uint64_t samples = 0;
  uint64_t dropped = 0;
  int hz = 0;
  double duration_s = 0.0;
};
ProfileStats CurrentProfileStats();

/// Symbolizes and aggregates the collected samples into collapsed-stack
/// text: `# ltee-profile hz=.. samples=.. dropped=.. duration_s=..`
/// header comments followed by flamegraph.pl-compatible lines
/// `span:NAME;root_frame;...;leaf_frame COUNT` (root first, count last,
/// samples with no open span use `span:(none)`). Call after StopProfiler;
/// collecting while sampling is active stops it first.
std::string CollectCollapsedProfile();

/// Drops all collected samples and per-capture counters (cumulative
/// totals survive). Must not be called while sampling is active.
void ResetProfiler();

/// Bounded on-demand capture: start at `hz`, sample for `seconds` of
/// wall time, stop, and return the collapsed profile. Refuses (returns
/// false with `error`) when another capture is active — the caller maps
/// that to 503. Used by the /profile endpoint and tests.
bool CaptureProfile(double seconds, int hz, std::string* collapsed,
                    std::string* error);

/// Parsed + aggregated view of a collapsed profile, shared by
/// `ltee_cli analyze-profile`, `ltee_top --profile`, and tests.
struct ProfileAnalysis {
  int hz = 0;
  uint64_t samples = 0;
  uint64_t dropped = 0;
  double duration_s = 0.0;

  struct FrameStat {
    std::string name;
    /// Samples with this frame at the leaf (the CPU was in it).
    uint64_t self = 0;
    /// Samples with this frame anywhere on the stack.
    uint64_t total = 0;
  };
  /// Every distinct frame, sorted by self descending (total breaks ties).
  std::vector<FrameStat> frames;

  struct SpanStat {
    std::string name;
    uint64_t samples = 0;
    /// Share of all samples, in percent.
    double pct = 0.0;
  };
  /// Per-span CPU attribution, sorted by samples descending.
  std::vector<SpanStat> spans;
};

/// Parses collapsed-stack text (as produced by CollectCollapsedProfile).
/// Unknown `#` headers are ignored; a malformed stack line fails the
/// parse. An empty profile (headers only) parses successfully with zero
/// frames.
bool ParseCollapsedProfile(const std::string& text, ProfileAnalysis* out,
                           std::string* error);

/// Human-readable report: capture header, top-N functions by self
/// samples, and the per-span CPU breakdown.
std::string ProfileAnalysisToText(const ProfileAnalysis& analysis,
                                  size_t top_n = 20);

/// Same content as one JSON object: {"hz","samples","dropped",
/// "duration_s","top_functions":[{name,self,total,self_pct}],
/// "spans":[{name,samples,pct}]}.
std::string ProfileAnalysisToJson(const ProfileAnalysis& analysis,
                                  size_t top_n = 20);

}  // namespace ltee::obsv

#endif  // LTEE_OBSV_PROFILER_H_
