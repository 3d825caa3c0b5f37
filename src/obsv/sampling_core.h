#ifndef LTEE_OBSV_SAMPLING_CORE_H_
#define LTEE_OBSV_SAMPLING_CORE_H_

// Internal to src/obsv: the sampling core the CPU profiler (profiler.cc)
// and the heap profiler (memtrack.cc) are thin users of.

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace ltee::obsv::sampling {

inline constexpr uint32_t kRingShards = 8;
inline constexpr uint32_t kRingSlots = 16384;
/// A slot id is `shard << kShardShift | index`, below 2^24, so a 32-bit
/// reference can keep a tag in its top byte.
inline constexpr uint32_t kShardShift = 21;
inline constexpr uint32_t kIndexMask = (uint32_t{1} << kShardShift) - 1;

/// The calling thread's ring: kernel tid % kRingShards. Signal-safe.
uint32_t CurrentShard();

/// kRingShards tid-sharded rings of kRingSlots fixed slots. A writer
/// claims a slot with one fetch_add and publishes it with a release
/// store; a full ring counts the sample as a drop, so writers never block
/// and never reallocate. The storage is allocated by the first session
/// and never freed, so no late writer or stale id reaches freed memory.
/// Constant-initialized: the allocation hook reads it before main().
template <typename Sample>
class SampleRings {
 public:
  /// Normal context, before any writer is armed.
  void Allocate() {
    if (storage_.load(std::memory_order_relaxed) == nullptr) {
      storage_.store(new Storage, std::memory_order_release);
    }
  }

  /// The calling thread's next slot and its id, or nullptr (a drop).
  Sample* Claim(uint32_t* id) {
    Storage* storage = storage_.load(std::memory_order_acquire);
    const uint32_t shard = CurrentShard();
    const uint64_t index = heads_[shard].fetch_add(1, std::memory_order_relaxed);
    if (storage == nullptr || index >= kRingSlots) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    *id = shard << kShardShift | static_cast<uint32_t>(index);
    return &storage->slots[shard][index];
  }

  void Publish(uint32_t id) {
    storage_.load(std::memory_order_relaxed)
        ->ready[id >> kShardShift][id & kIndexMask]
        .store(1, std::memory_order_release);
  }

  /// The published sample with id `id`, or nullptr.
  Sample* Find(uint32_t id) {
    Storage* storage = storage_.load(std::memory_order_acquire);
    const uint32_t shard = id >> kShardShift, index = id & kIndexMask;
    if (storage == nullptr || shard >= kRingShards || index >= kRingSlots ||
        storage->ready[shard][index].load(std::memory_order_acquire) == 0) {
      return nullptr;
    }
    return &storage->slots[shard][index];
  }

  /// Calls `fn(sample)` for every published sample.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const Storage* storage = storage_.load(std::memory_order_acquire);
    for (uint32_t s = 0; storage != nullptr && s < kRingShards; ++s) {
      for (uint64_t i = 0; i < Used(s); ++i) {
        if (storage->ready[s][i].load(std::memory_order_acquire) != 0) {
          fn(storage->slots[s][i]);
        }
      }
    }
  }

  /// Empties the rings and zeroes the drops; writers must be disarmed.
  void Clear() {
    Storage* storage = storage_.load(std::memory_order_relaxed);
    for (uint32_t s = 0; s < kRingShards; ++s) {
      for (uint64_t i = 0; storage != nullptr && i < Used(s); ++i) {
        storage->ready[s][i].store(0, std::memory_order_relaxed);
      }
      heads_[s].store(0, std::memory_order_relaxed);
    }
    dropped_.store(0, std::memory_order_relaxed);
  }

  /// Slots claimed within the rings (drops excluded).
  uint64_t claimed() const {
    uint64_t total = 0;
    for (uint32_t s = 0; s < kRingShards; ++s) total += Used(s);
    return total;
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Storage {
    Sample slots[kRingShards][kRingSlots];
    std::atomic<uint8_t> ready[kRingShards][kRingSlots];
  };

  uint64_t Used(uint32_t shard) const {
    const uint64_t head = heads_[shard].load(std::memory_order_relaxed);
    return head < kRingSlots ? head : kRingSlots;
  }

  std::atomic<uint64_t> heads_[kRingShards];
  std::atomic<uint64_t> dropped_{0};
  std::atomic<Storage*> storage_{nullptr};
};

/// One sampler's capture session, exclusive from Start to Reset: a second
/// Start or a bounded capture is refused, never queued, and never reuses
/// the rings under an export. Keeps the sampler's lifetime totals and
/// their `<prefix>.captures|samples|dropped` counters. The hooks run
/// under the session mutex.
class Session {
 public:
  /// The current (or just-stopped) capture; `rate` is Hz or bytes.
  struct Stats {
    uint64_t rate = 0;
    uint64_t samples = 0;
    uint64_t dropped = 0;
    double duration_s = 0.0;
  };
  /// Cumulative across all captures in this process (feeds /stats).
  struct Totals {
    uint64_t captures = 0;
    uint64_t samples = 0;
    uint64_t dropped = 0;
  };

  /// "profile" or "heap profile".
  const char* name() const { return name_; }
  /// Refuses while a session is open, else clears and arms at `rate`.
  bool Start(uint64_t rate, std::string* error);
  bool Armed();
  /// Disarms; the samples stay for Collect. Idempotent.
  void Stop();
  /// Stops, then exports the collapsed profile.
  std::string Collect();
  /// Stops and clears, closing the session.
  void Reset();
  /// Start → sleep `seconds` (clamped to [0.01, 120]) → Collect → Reset.
  bool Capture(double seconds, uint64_t rate, std::string* collapsed,
               std::string* error);
  Stats CurrentStats();
  Totals Lifetime() const;

 protected:
  constexpr Session(const char* name, const char* metric_prefix)
      : name_(name), metric_prefix_(metric_prefix) {}
  ~Session() = default;

  virtual bool Arm(uint64_t rate, std::string* error) = 0;
  virtual void Disarm() = 0;
  virtual std::string Export(const Stats& stats) = 0;
  /// Empties the rings, at Start and at Reset.
  virtual void Clear() = 0;
  virtual uint64_t Claimed() const = 0;
  virtual uint64_t Dropped() const = 0;

 private:
  void StopLocked();
  Stats StatsLocked() const;

  const char* name_;
  const char* metric_prefix_;
  std::mutex mu_;
  bool open_ = false;
  bool armed_ = false;
  uint64_t rate_ = 0;
  std::chrono::steady_clock::time_point started_at_{};
  double duration_s_ = 0.0;
  std::atomic<uint64_t> captures_{0};
  std::atomic<uint64_t> samples_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// The two samplers (profiler.cc, memtrack.cc), for the surfaces in
/// src/obsv that drive both alike.
Session& CpuSampler();
Session& HeapSampler();

/// `span` made safe for a collapsed line: ';' separates frames and ' '
/// the trailing weight.
std::string CollapsedSpanName(std::string span);

/// Aggregates sampled stacks into flamegraph.pl's collapsed lines,
/// `span:NAME;root;...;leaf WEIGHT` (`span:(none)` outside any span),
/// symbolizing each distinct pc once. `drop_leaf(symbol)` marks frames
/// stripped off the leaf end of every stack (allocator frames).
class CollapseWriter {
 public:
  explicit CollapseWriter(bool (*drop_leaf)(const std::string&) = nullptr)
      : drop_leaf_(drop_leaf) {}

  /// Adds `weight` to the stack `frames[0, depth)`, stored leaf first.
  void Add(const char* span, void* const* frames, int depth, uint64_t weight);
  /// Appends the lines, sorted.
  void AppendTo(std::string* out) const;

 private:
  struct Frame {
    std::string name;
    bool drop = false;
  };
  const Frame& Symbol(const void* pc);

  bool (*drop_leaf_)(const std::string&);
  std::unordered_map<const void*, Frame> symbols_;
  std::map<std::string, uint64_t> lines_;
};

/// The header reader: sets `*out` from the `key=value` token of a `#`
/// comment line (0 when the value is not a number); absent keys leave it.
template <typename T>
void ReadField(std::string_view line, std::string_view key, T* out) {
  for (size_t pos = 0; pos < line.size();) {
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(pos, end - pos);
    if (token.size() > key.size() && token.substr(0, key.size()) == key &&
        token[key.size()] == '=') {
      const char* last = token.data() + token.size();
      if (std::from_chars(token.data() + key.size() + 1, last, *out).ec !=
          std::errc()) {
        *out = T{};
      }
      return;
    }
    pos = end + 1;
  }
}

}  // namespace ltee::obsv::sampling

#endif  // LTEE_OBSV_SAMPLING_CORE_H_
