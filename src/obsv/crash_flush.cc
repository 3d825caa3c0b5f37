#include "obsv/crash_flush.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>

#include "obsv/access_log.h"
#include "obsv/sampling_core.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ltee::obsv {

namespace {

struct FlushState {
  std::mutex mu;
  bool armed = false;
  bool installed = false;
  std::string trace_path;
  std::string metrics_path;
  std::string access_log_path;
  std::string profile_path;
  std::string heap_profile_path;
  std::terminate_handler previous_terminate = nullptr;
};

FlushState& State() {
  static FlushState* state = new FlushState();
  return *state;
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "crash flush: cannot write %s\n", path.c_str());
    return;
  }
  out << body << "\n";
}

[[noreturn]] void TerminateHandler() {
  CrashFlushNow();
  std::terminate_handler previous;
  {
    std::lock_guard<std::mutex> lock(State().mu);
    previous = State().previous_terminate;
  }
  if (previous != nullptr) previous();
  std::abort();
}

void AtExitHandler() { CrashFlushNow(); }

}  // namespace

void ArmCrashFlush(std::string trace_path, std::string metrics_path,
                   std::string access_log_path, std::string profile_path,
                   std::string heap_profile_path) {
  FlushState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.trace_path = std::move(trace_path);
  state.metrics_path = std::move(metrics_path);
  state.access_log_path = std::move(access_log_path);
  state.profile_path = std::move(profile_path);
  state.heap_profile_path = std::move(heap_profile_path);
  state.armed = true;
  if (!state.installed) {
    state.installed = true;
    state.previous_terminate = std::set_terminate(&TerminateHandler);
    std::atexit(&AtExitHandler);
  }
}

void DisarmCrashFlush() {
  FlushState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.armed = false;
}

bool CrashFlushNow() {
  std::string trace_path, metrics_path, access_log_path, profile_path;
  std::string heap_profile_path;
  {
    FlushState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.armed) return false;
    state.armed = false;  // write once, even if terminate + atexit both fire
    trace_path = state.trace_path;
    metrics_path = state.metrics_path;
    access_log_path = state.access_log_path;
    profile_path = state.profile_path;
    heap_profile_path = state.heap_profile_path;
  }
  if (!trace_path.empty()) {
    WriteFile(trace_path, util::trace::ExportChromeTrace());
    std::fprintf(stderr, "crash flush: trace written to %s\n",
                 trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    // RunReport-shaped so report_diff and other consumers parse it; the
    // aborted flag distinguishes it from a completed run's report.
    std::string body =
        "{\"total_seconds\":0,\"stages\":[],\"classes\":[],"
        "\"aborted\":true,\"metrics\":";
    body += util::Metrics().Snapshot().ToJson();
    body += "}";
    WriteFile(metrics_path, body);
    std::fprintf(stderr, "crash flush: metrics written to %s\n",
                 metrics_path.c_str());
  }
  if (!access_log_path.empty()) {
    // The last requests before the crash — the ones most likely to have
    // caused it — as JSON lines, oldest first.
    WriteFile(access_log_path, GlobalAccessLog().ToJsonLines());
    std::fprintf(stderr, "crash flush: access log written to %s\n",
                 access_log_path.c_str());
  }
  // Stop each sampler and write whatever it collected: a partial CPU
  // profile of a crashed run still points at the code that was burning
  // CPU, and the sampled allocation stacks say where the bytes went.
  bool profile_written = false;
  for (const auto& [path, sampler] :
       {std::pair{&profile_path, &sampling::CpuSampler()},
        std::pair{&heap_profile_path, &sampling::HeapSampler()}}) {
    if (path->empty() ||
        (!sampler->Armed() && sampler->CurrentStats().samples == 0)) {
      continue;
    }
    WriteFile(*path, sampler->Collect());
    std::fprintf(stderr, "crash flush: partial %s written to %s\n",
                 sampler->name(), path->c_str());
    profile_written = true;
  }
  return !trace_path.empty() || !metrics_path.empty() ||
         !access_log_path.empty() || profile_written;
}

}  // namespace ltee::obsv
