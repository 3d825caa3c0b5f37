#include "obsv/profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "obsv/sampling_core.h"
#include "util/json.h"
#include "util/stack_capture.h"
#include "util/trace.h"

#if defined(__linux__)
#define LTEE_HAS_SIGPROF 1
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>
#else
#define LTEE_HAS_SIGPROF 0
#endif

namespace ltee::obsv {

namespace {

/// One raw sample, written entirely inside the SIGPROF handler. POD —
/// no constructors, no allocation.
struct RawSample {
  void* frames[util::kMaxStackDepth];
  int32_t depth;
  char span[util::trace::kTrackedSpanNameLen];
  char trace_id[33];
};

/// Handler gate: the only state the handler consults before claiming a
/// slot.
std::atomic<bool> g_sampling{false};
#if LTEE_HAS_SIGPROF
struct sigaction g_old_action;
#endif

class CpuSession final : public sampling::Session {
 public:
  constexpr CpuSession() : Session("profile", "ltee.profiler") {}

  sampling::SampleRings<RawSample> rings;

 private:
  bool Arm(uint64_t hz, std::string* error) override;
  void Disarm() override;
  std::string Export(const Stats& stats) override;
  void Clear() override { rings.Clear(); }
  uint64_t Claimed() const override { return rings.claimed(); }
  uint64_t Dropped() const override { return rings.dropped(); }
};

constinit CpuSession g_cpu;

#if LTEE_HAS_SIGPROF

void ProfSignalHandler(int /*signo*/, siginfo_t* /*info*/, void* /*ctx*/) {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  uint32_t id = 0;
  if (RawSample* sample = g_cpu.rings.Claim(&id)) {
    // Skip 2 innermost frames: this handler and the kernel signal
    // trampoline.
    sample->depth =
        util::CaptureStack(sample->frames, util::kMaxStackDepth, 2);
    util::trace::CurrentSpanNameForSignal(sample->span,
                                          sizeof(sample->span));
    util::trace::CurrentTraceIdForSignal(sample->trace_id,
                                         sizeof(sample->trace_id));
    g_cpu.rings.Publish(id);
  }
  errno = saved_errno;
}

bool CpuSession::Arm(uint64_t hz, std::string* error) {
  rings.Allocate();
  util::trace::SetSpanTrackingEnabled(true);
  struct sigaction sa {};
  sa.sa_sigaction = &ProfSignalHandler;
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGPROF, &sa, &g_old_action) != 0) {
    util::trace::SetSpanTrackingEnabled(false);
    if (error != nullptr) *error = "sigaction(SIGPROF) failed";
    return false;
  }
  g_sampling.store(true, std::memory_order_release);
  itimerval interval{};
  const long usec = std::max(1000000L / static_cast<long>(hz), 1L);
  interval.it_interval.tv_sec = usec / 1000000;
  interval.it_interval.tv_usec = usec % 1000000;
  interval.it_value = interval.it_interval;
  if (::setitimer(ITIMER_PROF, &interval, nullptr) != 0) {
    g_sampling.store(false, std::memory_order_relaxed);
    ::sigaction(SIGPROF, &g_old_action, nullptr);
    util::trace::SetSpanTrackingEnabled(false);
    if (error != nullptr) *error = "setitimer(ITIMER_PROF) failed";
    return false;
  }
  return true;
}

void CpuSession::Disarm() {
  const itimerval disarm{};
  ::setitimer(ITIMER_PROF, &disarm, nullptr);
  g_sampling.store(false, std::memory_order_relaxed);
  // Let any in-flight handler on another thread finish before restoring
  // the old disposition (a handler takes microseconds; this is belt and
  // braces, not synchronization the rings need).
  ::usleep(2000);
  ::sigaction(SIGPROF, &g_old_action, nullptr);
  util::trace::SetSpanTrackingEnabled(false);
}

#else  // !LTEE_HAS_SIGPROF

bool CpuSession::Arm(uint64_t, std::string* error) {
  if (error != nullptr) *error = "profiler unsupported on this platform";
  return false;
}

void CpuSession::Disarm() {}

#endif  // LTEE_HAS_SIGPROF

std::string CpuSession::Export(const Stats& stats) {
  sampling::CollapseWriter writer;
  uint64_t samples = 0;
  uint64_t request_samples = 0;
  rings.ForEach([&](const RawSample& sample) {
    ++samples;
    if (sample.trace_id[0] != '\0') ++request_samples;
    writer.Add(sample.span, sample.frames, sample.depth, 1);
  });
  char header[160];
  std::snprintf(header, sizeof(header),
                "# ltee-profile hz=%d samples=%llu dropped=%llu "
                "duration_s=%.3f req_samples=%llu\n",
                static_cast<int>(stats.rate),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(stats.dropped),
                stats.duration_s,
                static_cast<unsigned long long>(request_samples));
  std::string out = header;
  writer.AppendTo(&out);
  return out;
}

}  // namespace

sampling::Session& sampling::CpuSampler() { return g_cpu; }

bool StartProfiler(int hz, std::string* error) {
  return g_cpu.Start(static_cast<uint64_t>(std::clamp(hz, 1, 1000)), error);
}

bool ProfilerActive() { return g_cpu.Armed(); }

void StopProfiler() { g_cpu.Stop(); }

ProfileStats CurrentProfileStats() {
  const sampling::Session::Stats stats = g_cpu.CurrentStats();
  return {stats.samples, stats.dropped, static_cast<int>(stats.rate),
          stats.duration_s};
}

std::string CollectCollapsedProfile() { return g_cpu.Collect(); }

void ResetProfiler() { g_cpu.Reset(); }

bool CaptureProfile(double seconds, int hz, std::string* collapsed,
                    std::string* error) {
  return g_cpu.Capture(seconds, static_cast<uint64_t>(std::clamp(hz, 1, 1000)),
                       collapsed, error);
}

bool ParseCollapsedProfile(const std::string& text, ProfileAnalysis* out,
                           std::string* error) {
  if (out == nullptr) return false;
  *out = ProfileAnalysis();
  std::map<std::string, ProfileAnalysis::FrameStat> frames;
  std::map<std::string, uint64_t> spans;
  uint64_t line_samples = 0;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# ltee-profile", 0) != 0) continue;
      sampling::ReadField(line, "hz", &out->hz);
      sampling::ReadField(line, "samples", &out->samples);
      sampling::ReadField(line, "dropped", &out->dropped);
      sampling::ReadField(line, "duration_s", &out->duration_s);
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": missing count";
      }
      return false;
    }
    char* count_end = nullptr;
    const uint64_t count =
        std::strtoull(line.c_str() + space + 1, &count_end, 10);
    if (count_end == nullptr || *count_end != '\0' || count == 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": bad count";
      }
      return false;
    }
    // Split the stack body on ';' — first frame may be the span tag.
    std::vector<std::string> stack;
    size_t fpos = 0;
    const std::string body = line.substr(0, space);
    while (fpos <= body.size()) {
      size_t fend = body.find(';', fpos);
      if (fend == std::string::npos) fend = body.size();
      stack.push_back(body.substr(fpos, fend - fpos));
      fpos = fend + 1;
    }
    if (stack.empty() || stack.front().empty()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": empty stack";
      }
      return false;
    }
    size_t first_frame = 0;
    if (stack.front().rfind("span:", 0) == 0) {
      spans[stack.front().substr(5)] += count;
      first_frame = 1;
    } else {
      spans["(none)"] += count;
    }
    line_samples += count;
    if (first_frame >= stack.size()) continue;  // span tag only, no frames
    std::set<std::string> seen;
    for (size_t f = first_frame; f < stack.size(); ++f) {
      ProfileAnalysis::FrameStat& stat = frames[stack[f]];
      if (stat.name.empty()) stat.name = stack[f];
      // A frame recursing within one stack still gets its total counted
      // once.
      if (seen.insert(stack[f]).second) stat.total += count;
    }
    frames[stack.back()].self += count;
  }
  if (out->samples == 0) out->samples = line_samples;
  const uint64_t denom = line_samples > 0 ? line_samples : 1;
  out->frames.reserve(frames.size());
  for (auto& [name, stat] : frames) out->frames.push_back(std::move(stat));
  std::sort(out->frames.begin(), out->frames.end(),
            [](const ProfileAnalysis::FrameStat& a,
               const ProfileAnalysis::FrameStat& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.name < b.name;
            });
  out->spans.reserve(spans.size());
  for (const auto& [name, samples] : spans) {
    ProfileAnalysis::SpanStat stat;
    stat.name = name;
    stat.samples = samples;
    stat.pct = 100.0 * static_cast<double>(samples) /
               static_cast<double>(denom);
    out->spans.push_back(std::move(stat));
  }
  std::sort(out->spans.begin(), out->spans.end(),
            [](const ProfileAnalysis::SpanStat& a,
               const ProfileAnalysis::SpanStat& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.name < b.name;
            });
  return true;
}

std::string ProfileAnalysisToText(const ProfileAnalysis& analysis,
                                  size_t top_n) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Profile: %llu samples @ %d Hz over %.2f s (%llu dropped)\n",
                static_cast<unsigned long long>(analysis.samples),
                analysis.hz, analysis.duration_s,
                static_cast<unsigned long long>(analysis.dropped));
  out += buf;
  const double denom =
      analysis.samples > 0 ? static_cast<double>(analysis.samples) : 1.0;
  out += "\nTop functions by self samples:\n";
  out += "    SELF   TOTAL   SELF%  NAME\n";
  size_t shown = 0;
  for (const ProfileAnalysis::FrameStat& frame : analysis.frames) {
    if (shown++ >= top_n) break;
    std::snprintf(buf, sizeof(buf), "  %6llu  %6llu  %5.1f%%  ",
                  static_cast<unsigned long long>(frame.self),
                  static_cast<unsigned long long>(frame.total),
                  100.0 * static_cast<double>(frame.self) / denom);
    out += buf;
    out += frame.name;
    out += '\n';
  }
  if (analysis.frames.empty()) out += "  (no samples)\n";
  out += "\nCPU by span:\n";
  out += "  SAMPLES    PCT   SPAN\n";
  for (const ProfileAnalysis::SpanStat& span : analysis.spans) {
    std::snprintf(buf, sizeof(buf), "  %7llu  %5.1f%%  ",
                  static_cast<unsigned long long>(span.samples), span.pct);
    out += buf;
    out += span.name;
    out += '\n';
  }
  if (analysis.spans.empty()) out += "  (no samples)\n";
  return out;
}

std::string ProfileAnalysisToJson(const ProfileAnalysis& analysis,
                                  size_t top_n) {
  std::string out = "{\"hz\":";
  out += std::to_string(analysis.hz);
  out += ",\"samples\":";
  out += std::to_string(analysis.samples);
  out += ",\"dropped\":";
  out += std::to_string(analysis.dropped);
  out += ",\"duration_s\":";
  util::AppendJsonNumber(&out, analysis.duration_s);
  const double denom =
      analysis.samples > 0 ? static_cast<double>(analysis.samples) : 1.0;
  out += ",\"top_functions\":[";
  size_t shown = 0;
  for (const ProfileAnalysis::FrameStat& frame : analysis.frames) {
    if (shown >= top_n) break;
    if (shown++ > 0) out += ',';
    out += "{\"name\":";
    out += util::JsonQuote(frame.name);
    out += ",\"self\":";
    out += std::to_string(frame.self);
    out += ",\"total\":";
    out += std::to_string(frame.total);
    out += ",\"self_pct\":";
    util::AppendJsonNumber(&out,
                           100.0 * static_cast<double>(frame.self) / denom);
    out += '}';
  }
  out += "],\"spans\":[";
  for (size_t s = 0; s < analysis.spans.size(); ++s) {
    if (s > 0) out += ',';
    out += "{\"name\":";
    out += util::JsonQuote(analysis.spans[s].name);
    out += ",\"samples\":";
    out += std::to_string(analysis.spans[s].samples);
    out += ",\"pct\":";
    util::AppendJsonNumber(&out, analysis.spans[s].pct);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace ltee::obsv
