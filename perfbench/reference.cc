// Reference kernel: reads how fast the host runs right now.
//
// Usage:
//   perfbench_ref SECONDS
//
// One thread per CPU this process may use runs fixed chunks of dependent
// integer multiply-adds for SECONDS and the program prints the mean chunk
// time in ms over all threads. The work never changes, so the reading
// moves only with the host: on a shared VM the same chunk takes anywhere
// from ~0.55 to over 1 ms as the machine's other tenants come and go,
// without any CPU time being stolen from this one. run.py reads it before
// and after each timed pipeline command and scales the command's wall
// time to a fixed reference speed (spec.json "reference").

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/// Steps per chunk: ~0.65 ms on a quiet host.
constexpr int kChunkSteps = 400000;

struct Tally {
  double ms = 0.0;
  int64_t chunks = 0;
};

void Spin(double seconds, uint64_t seed, Tally* tally) {
  volatile uint64_t sink = seed;
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  for (auto start = Clock::now(); start < end;) {
    uint64_t x = sink;
    for (int i = 0; i < kChunkSteps; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink = x;
    const auto done = Clock::now();
    tally->ms += std::chrono::duration<double, std::milli>(done - start).count();
    ++tally->chunks;
    start = done;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc == 2 ? std::atof(argv[1]) : 0.0;
  if (seconds <= 0.0) {
    std::fprintf(stderr, "usage: perfbench_ref SECONDS\n");
    return 2;
  }
  cpu_set_t set;
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  std::vector<Tally> tallies(static_cast<size_t>(cpus));
  std::vector<std::thread> threads;
  for (int t = 0; t < cpus; ++t) {
    threads.emplace_back(Spin, seconds, static_cast<uint64_t>(t) + 1,
                         &tallies[static_cast<size_t>(t)]);
  }
  for (std::thread& thread : threads) thread.join();
  Tally total;
  for (const Tally& t : tallies) {
    total.ms += t.ms;
    total.chunks += t.chunks;
  }
  std::printf("%.6f\n", total.ms / static_cast<double>(total.chunks));
  return 0;
}
