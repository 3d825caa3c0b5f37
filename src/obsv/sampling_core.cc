#include "obsv/sampling_core.h"

#include <algorithm>
#include <thread>

#include "util/metrics.h"
#include "util/stack_capture.h"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace ltee::obsv::sampling {

uint32_t CurrentShard() {
#if defined(__linux__)
  return static_cast<uint32_t>(::syscall(SYS_gettid)) % kRingShards;
#else
  return 0;
#endif
}

bool Session::Start(uint64_t rate, std::string* error) {
  if (!util::StackCaptureSupported()) {
    if (error != nullptr) *error = "stack capture unsupported";
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (open_) {
    if (error != nullptr) {
      *error = std::string("a ") + name_ + " capture is already active";
    }
    return false;
  }
  util::WarmUpStackCapture();
  Clear();
  if (!Arm(rate, error)) return false;
  rate_ = rate;
  duration_s_ = 0.0;
  started_at_ = std::chrono::steady_clock::now();
  armed_ = true;
  open_ = true;
  captures_.fetch_add(1, std::memory_order_relaxed);
  util::Metrics()
      .GetCounter(std::string(metric_prefix_) + ".captures")
      .Increment();
  return true;
}

bool Session::Armed() {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

void Session::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  StopLocked();
}

std::string Session::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  StopLocked();
  return Export(StatsLocked());
}

void Session::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  StopLocked();
  Clear();
  rate_ = 0;
  duration_s_ = 0.0;
  open_ = false;
}

bool Session::Capture(double seconds, uint64_t rate, std::string* collapsed,
                      std::string* error) {
  if (!Start(rate, error)) return false;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::clamp(seconds, 0.01, 120.0)));
  // The session stays open until Reset, so nothing can interleave.
  std::string profile = Collect();
  Reset();
  if (collapsed != nullptr) *collapsed = std::move(profile);
  return true;
}

Session::Stats Session::CurrentStats() {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

Session::Totals Session::Lifetime() const {
  return {captures_.load(std::memory_order_relaxed),
          samples_.load(std::memory_order_relaxed),
          dropped_.load(std::memory_order_relaxed)};
}

void Session::StopLocked() {
  if (!armed_) return;
  duration_s_ = StatsLocked().duration_s;
  Disarm();
  armed_ = false;
  const uint64_t samples = Claimed(), dropped = Dropped();
  samples_.fetch_add(samples, std::memory_order_relaxed);
  dropped_.fetch_add(dropped, std::memory_order_relaxed);
  const std::string prefix = metric_prefix_;
  util::Metrics().GetCounter(prefix + ".samples").Increment(samples);
  util::Metrics().GetCounter(prefix + ".dropped").Increment(dropped);
}

Session::Stats Session::StatsLocked() const {
  const std::chrono::duration<double> running =
      std::chrono::steady_clock::now() - started_at_;
  return {rate_, Claimed(), Dropped(), armed_ ? running.count() : duration_s_};
}

std::string CollapsedSpanName(std::string span) {
  std::replace(span.begin(), span.end(), ';', ':');
  std::replace(span.begin(), span.end(), ' ', '_');
  return span;
}

const CollapseWriter::Frame& CollapseWriter::Symbol(const void* pc) {
  auto it = symbols_.find(pc);
  if (it == symbols_.end()) {
    const std::string raw = util::SymbolizeAddress(pc).name;
    // Strip the parameter list from demangled C++ names, keeping
    // "operator()"'s parens.
    std::string name = raw;
    size_t paren = name.find('(');
    while (paren != std::string::npos && paren >= 8 &&
           name.compare(paren - 8, 8, "operator") == 0) {
      paren = name.find('(', paren + 1);
    }
    if (paren != std::string::npos && paren > 0) name.resize(paren);
    name = name.empty() ? "[unknown]" : CollapsedSpanName(std::move(name));
    const bool drop = drop_leaf_ != nullptr && drop_leaf_(raw);
    it = symbols_.emplace(pc, Frame{std::move(name), drop}).first;
  }
  return it->second;
}

void CollapseWriter::Add(const char* span, void* const* frames, int depth,
                         uint64_t weight) {
  int leaf = 0;
  while (leaf < depth && Symbol(frames[leaf]).drop) ++leaf;
  std::string line = "span:";
  line += span[0] != '\0' ? CollapsedSpanName(span) : "(none)";
  // Samples store leaf-first; collapsed lines read root-first.
  for (int f = depth - 1; f >= leaf; --f) {
    line += ';';
    line += Symbol(frames[f]).name;
  }
  lines_[line] += weight;
}

void CollapseWriter::AppendTo(std::string* out) const {
  for (const auto& [line, weight] : lines_) {
    *out += line + ' ' + std::to_string(weight) + '\n';
  }
}

}  // namespace ltee::obsv::sampling
