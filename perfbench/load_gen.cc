// Open-loop HTTP load generator and output checker for the benchmark's
// serve phase. It talks to a running `ltee_cli serve` over loopback and
// checks what it serves against an in-process serve::QueryEngine built
// from the same snapshot file.
//
// Usage:
//   perfbench_load --port P --snapshot FILE --seed N
//       --rates R1,R2 --phase-s S --ladder RATE,RATE,... --rung-s S
//       --p99-limit-ms L --expect-version V [--trace] --out FILE
//
// Requests fall due on a fixed schedule, evenly spaced at the offered
// rate, however fast the server answers (an open loop: independent users).
// At most one connection per CPU this process may use is open at once,
// one request per connection, because the server closes each connection
// after its response. Latency runs from a request's due time to the end
// of its response, so a stall also counts against every request queued
// behind it; lateness is the time from due to send.
//
// A phase reports its p50 and p99, and the median over its 0.25 s windows
// (kWindowSeconds) of each window's p99, which a moment of interference
// from outside the benchmark moves far less than the p99. A phase is valid
// when no request failed and its backlog did not grow. A failed request
// fails the run; a growing backlog at r1 or r2 only marks the phase
// invalid, as a server or host too slow for the rate shows in its latency.
// max_rps is found by binary search over the --ladder rungs: a rung holds
// when its phase is valid and its window-median p99 is within
// --p99-limit-ms; it is 0 when no rung holds. Without --trace only the
// warm-up and the r1 phase run; --trace adds the server-side and
// in-process views, the r2 phase and the max_rps search.
//
// The result is one JSON object in --out. Exit status 0 means every probe
// matched and every request succeeded, 1 that a check failed, 2 bad usage.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_io.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/metrics.h"

namespace {

using namespace ltee;
using Clock = std::chrono::steady_clock;

constexpr int kTimeoutMs = 2000;
/// Shards the snapshot is loaded with: `ltee_cli serve`'s default, so
/// search results (per-shard IDF) match the server's.
constexpr size_t kSnapshotShards = 4;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      flags[arg.substr(2)] = "1";
    }
  }
  return flags;
}

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    out.push_back(std::atof(text.substr(pos, end - pos).c_str()));
    pos = end + 1;
  }
  return out;
}

/// CPUs this process may run on: the connection limit.
size_t UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of an ascending vector.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Unit(uint64_t* state) {
  return static_cast<double>(SplitMix(state) >> 11) * 0x1.0p-53;
}

std::string UrlEncode(const std::string& text) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : text) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Request mix

enum class Kind { kEntity = 0, kSearch = 1, kClasses = 2 };
constexpr int kNumKinds = 3;
const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEntity: return "entity";
    case Kind::kSearch: return "search";
    default: return "classes";
  }
}

struct Request {
  Kind kind = Kind::kEntity;
  int64_t id = 0;
  std::string query;
  std::string path;
};

/// Seeded request stream: 60% entity-by-id, 30% label search (k = 10),
/// 10% class listing. Entities are drawn Zipf(1.0)-skewed over every
/// entity of the snapshot, popularity ranks shuffled by the seed, so the
/// key space is larger than the server's 2048-entry result cache.
class RequestStream {
 public:
  RequestStream(const serve::Snapshot& snapshot, uint64_t seed)
      : snapshot_(snapshot), state_(seed * 0x2545f4914f6cdd1dull + 1) {
    const size_t n = std::max<size_t>(1, snapshot.num_entities());
    rank_to_id_.resize(n);
    std::iota(rank_to_id_.begin(), rank_to_id_.end(), 0);
    for (size_t i = n; i > 1; --i) {
      std::swap(rank_to_id_[i - 1], rank_to_id_[SplitMix(&state_) % i]);
    }
    cdf_.resize(n);
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  Request Next() {
    Request request;
    const uint64_t pick = SplitMix(&state_) % 10;
    if (pick < 6) {
      request.kind = Kind::kEntity;
      request.id = DrawEntity();
      request.path = "/kb/entity?id=" + std::to_string(request.id);
    } else if (pick < 9) {
      request.kind = Kind::kSearch;
      const serve::SnapshotEntity* entity =
          snapshot_.entity(static_cast<kb::InstanceId>(DrawEntity()));
      request.query = entity != nullptr && !entity->labels.empty()
                          ? entity->labels[0]
                          : std::string("entity");
      request.path = "/kb/search?q=" + UrlEncode(request.query) + "&k=10";
    } else {
      request.kind = Kind::kClasses;
      request.path = "/kb/classes";
    }
    return request;
  }

  std::vector<Request> Take(size_t n) {
    std::vector<Request> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(Next());
    return out;
  }

 private:
  int64_t DrawEntity() {
    const double u = Unit(&state_);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_to_id_[std::min(rank, rank_to_id_.size() - 1)];
  }

  const serve::Snapshot& snapshot_;
  uint64_t state_;
  std::vector<int64_t> rank_to_id_;
  std::vector<double> cdf_;
};

serve::QueryResult Answer(serve::QueryEngine* engine, const Request& r) {
  switch (r.kind) {
    case Kind::kEntity: return engine->EntityById(r.id);
    case Kind::kSearch: return engine->Search(r.query, 10);
    default: return engine->Classes();
  }
}

// ---------------------------------------------------------------------------
// HTTP

struct HttpResult {
  bool ok = false;
  int status = 0;
  std::string body;
  std::string error;
};

/// One GET on a fresh loopback connection, read to end of stream.
HttpResult HttpGet(uint16_t port, const std::string& path) {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    result.error = std::strerror(errno);
    return result;
  }
  timeval tv{};
  tv.tv_sec = kTimeoutMs / 1000;
  tv.tv_usec = (kTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    result.error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return result;
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      result.error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return result;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      result.error = std::string("recv: ") + std::strerror(errno);
      ::close(fd);
      return result;
    }
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t head_end = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos ||
      response.size() < 12) {
    result.error = "malformed response";
    return result;
  }
  result.status = std::atoi(response.c_str() + 9);
  result.body = response.substr(head_end + 4);
  const std::string head = response.substr(0, head_end);
  const size_t cl = head.find("Content-Length: ");
  if (cl == std::string::npos ||
      std::strtoull(head.c_str() + cl + 16, nullptr, 10) !=
          result.body.size()) {
    result.error = "body length differs from Content-Length";
    return result;
  }
  result.ok = true;
  return result;
}

// ---------------------------------------------------------------------------
// Open-loop phases

/// The window-median p99 takes the p99 of each window of this many seconds
/// of due times and reports the median over the windows: a burst of
/// interference from outside the benchmark (another process taking the
/// CPUs for a moment) then moves one window, not the result. At 7000 req/s
/// a window still has 17 samples beyond its p99.
constexpr double kWindowSeconds = 0.25;

struct PhaseResult {
  double rate = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  /// Percentiles over the whole phase.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Median over the phase's windows of each window's p99.
  double p99_window_median_ms = 0.0;
  double lag_p99_ms = 0.0;
  /// Median lateness of the last quarter minus that of the first: a
  /// backlog that builds up during the phase shows as growth.
  double lag_growth_ms = 0.0;
  /// No request failed and the backlog grew by at most the limit given to
  /// RunPhase.
  bool valid = false;
  std::string first_error;
};

/// Sends `paths` at `rate` requests/s over at most `conns` connections.
/// Every response must be a 200; with `want_json` its body must also be
/// valid JSON.
PhaseResult RunPhase(uint16_t port, const std::vector<std::string>& paths,
                     double rate, size_t conns, double max_lag_growth_ms,
                     bool want_json) {
  struct Sample {
    double lateness_ms = 0.0;
    double latency_ms = 0.0;
    bool ok = false;
  };
  const size_t n = paths.size();
  std::vector<Sample> samples(n);
  std::atomic<size_t> next{0};
  std::vector<std::string> errors(conns);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const double period_ns = 1e9 / rate;
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        const auto due =
            start + std::chrono::nanoseconds(static_cast<int64_t>(
                        period_ns * static_cast<double>(i)));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        HttpResult r = HttpGet(port, paths[i]);
        const auto done = Clock::now();
        bool ok = r.ok && r.status == 200;
        if (ok && want_json) ok = util::JsonIsValid(r.body);
        if (!ok && errors[c].empty()) {
          errors[c] = paths[i] + ": " +
                      (r.ok ? "HTTP " + std::to_string(r.status) +
                                  (r.status == 200 ? " (invalid JSON)" : "")
                            : r.error);
        }
        samples[i] = {MsBetween(due, sent), MsBetween(due, done), ok};
      }
    });
  }
  for (auto& thread : threads) thread.join();

  PhaseResult result;
  result.rate = rate;
  result.attempted = n;
  std::vector<double> latency, lateness;
  latency.reserve(n);
  lateness.reserve(n);
  for (const Sample& s : samples) {
    if (!s.ok) ++result.failed;
    latency.push_back(s.latency_ms);
    lateness.push_back(s.lateness_ms);
  }
  for (const std::string& e : errors) {
    if (!e.empty()) {
      result.first_error = e;
      break;
    }
  }
  const size_t quarter = std::max<size_t>(1, n / 4);
  result.lag_growth_ms =
      Median(std::vector<double>(lateness.end() - quarter, lateness.end())) -
      Median(std::vector<double>(lateness.begin(), lateness.begin() + quarter));
  const size_t per_window = std::max<size_t>(
      1, static_cast<size_t>(std::llround(rate * kWindowSeconds)));
  std::vector<double> p99s;
  for (size_t begin = 0; begin < n;) {
    // A short tail joins the window before it.
    const size_t end = n - begin < 2 * per_window ? n : begin + per_window;
    std::vector<double> window(latency.begin() + begin,
                               latency.begin() + end);
    std::sort(window.begin(), window.end());
    p99s.push_back(Percentile(window, 0.99));
    begin = end;
  }
  std::sort(latency.begin(), latency.end());
  std::sort(lateness.begin(), lateness.end());
  result.p50_ms = Percentile(latency, 0.50);
  result.p99_ms = Percentile(latency, 0.99);
  result.p99_window_median_ms = Median(p99s);
  result.lag_p99_ms = Percentile(lateness, 0.99);
  result.valid =
      result.failed == 0 && result.lag_growth_ms <= max_lag_growth_ms;
  return result;
}

std::vector<std::string> PathsOf(const std::vector<Request>& requests) {
  std::vector<std::string> paths;
  paths.reserve(requests.size());
  for (const Request& r : requests) paths.push_back(r.path);
  return paths;
}

// ---------------------------------------------------------------------------
// Output

class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Add(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    Add(key, util::JsonQuote(value));
  }
  void Raw(const std::string& key, const std::string& json) { Add(key, json); }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += util::JsonQuote(key) + ":" + value;
  }
  std::string body_;
};

void EmitPhase(JsonOut* out, const std::string& suffix, const PhaseResult& p) {
  out->Num("rate." + suffix, p.rate);
  out->Num("samples." + suffix, static_cast<double>(p.attempted));
  out->Num("failed." + suffix, static_cast<double>(p.failed));
  out->Num("p50_ms." + suffix, p.p50_ms);
  out->Num("p99_ms." + suffix, p.p99_ms);
  out->Num("p99_window_median_ms." + suffix, p.p99_window_median_ms);
  out->Num("lag_p99_ms." + suffix, p.lag_p99_ms);
  out->Num("lag_growth_ms." + suffix, p.lag_growth_ms);
  out->Num("valid." + suffix, p.valid ? 1 : 0);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_load --port P --snapshot FILE --seed N "
               "--rates R1,R2 --phase-s S --ladder R,R,... --rung-s S "
               "--p99-limit-ms L --expect-version V [--trace] "
               "--out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = ParseFlags(argc, argv);
  for (const char* required :
       {"port", "snapshot", "seed", "rates", "phase-s", "ladder", "rung-s",
        "p99-limit-ms", "expect-version", "out"}) {
    if (!flags.count(required)) return Usage();
  }
  const auto port = static_cast<uint16_t>(std::atoi(flags.at("port").c_str()));
  const uint64_t seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
  const size_t conns = UsableCpus();
  const std::vector<double> rates = ParseList(flags.at("rates"));
  const std::vector<double> ladder = ParseList(flags.at("ladder"));
  const double phase_s = std::atof(flags.at("phase-s").c_str());
  const double rung_s = std::atof(flags.at("rung-s").c_str());
  const double limit_ms = std::atof(flags.at("p99-limit-ms").c_str());
  const bool trace = flags.count("trace") > 0;
  if (rates.size() != 2 || ladder.empty() || phase_s <= 0 || rung_s <= 0) {
    return Usage();
  }

  JsonOut out;
  std::vector<std::string> failures;
  size_t attempted = 0, failed = 0;

  std::string error;
  auto snapshot = serve::LoadSnapshot(flags.at("snapshot"), kSnapshotShards,
                                      &error);
  if (snapshot == nullptr) {
    std::fprintf(stderr, "perfbench_load: cannot load snapshot: %s\n",
                 error.c_str());
    return 1;
  }
  out.Str("content_hash", std::to_string(snapshot->content_hash()));
  out.Num("version", static_cast<double>(snapshot->version()));
  out.Num("entities", static_cast<double>(snapshot->num_entities()));
  const std::string& expected_version = flags.at("expect-version");
  if (snapshot->version() !=
      std::strtoull(expected_version.c_str(), nullptr, 10)) {
    failures.push_back("snapshot version " +
                       std::to_string(snapshot->version()) + ", expected " +
                       expected_version);
  }

  // Probes: fixed requests whose served bodies must equal the in-process
  // engine's answer for the same snapshot.
  {
    serve::QueryEngine engine;
    engine.Publish(snapshot);
    const int64_t n = static_cast<int64_t>(snapshot->num_entities());
    std::vector<std::pair<std::string, serve::QueryResult>> probes;
    probes.emplace_back("/kb/snapshot", engine.SnapshotInfo());
    probes.emplace_back("/kb/classes", engine.Classes());
    for (int64_t id : {int64_t{0}, n / 3, n / 2, n - 1}) {
      probes.emplace_back("/kb/entity?id=" + std::to_string(id),
                          engine.EntityById(id));
    }
    for (int64_t id : {int64_t{1}, n / 4, (2 * n) / 3}) {
      const serve::SnapshotEntity* e =
          snapshot->entity(static_cast<kb::InstanceId>(id));
      if (e == nullptr || e->labels.empty()) continue;
      probes.emplace_back("/kb/search?q=" + UrlEncode(e->labels[0]) + "&k=10",
                          engine.Search(e->labels[0], 10));
    }
    if (!snapshot->classes().empty()) {
      const std::string& name = snapshot->classes().back().name;
      probes.emplace_back("/kb/classes?name=" + UrlEncode(name) + "&limit=5",
                          engine.ClassInstances(name, 5));
    }
    for (const auto& [path, expected] : probes) {
      ++attempted;
      const HttpResult got = HttpGet(port, path);
      std::string problem;
      if (!got.ok) {
        problem = got.error;
      } else if (got.status != 200 || expected.status != 200) {
        problem = "HTTP " + std::to_string(got.status) + ", engine " +
                  std::to_string(expected.status);
      } else if (!util::JsonIsValid(got.body)) {
        problem = "body is not valid JSON";
      } else if (got.body != expected.body) {
        problem = "body differs from the in-process engine";
      }
      if (!problem.empty()) {
        ++failed;
        failures.push_back("probe " + path + ": " + problem);
      }
    }
    out.Num("probes", static_cast<double>(probes.size()));
  }

  RequestStream stream(*snapshot, seed);
  // A backlog that grows by half the p99 limit over a phase invalidates it.
  const double max_lag_growth_ms = limit_ms / 2;
  auto run = [&](const std::vector<std::string>& paths, double rate,
                 bool want_json) {
    PhaseResult p =
        RunPhase(port, paths, rate, conns, max_lag_growth_ms, want_json);
    attempted += p.attempted;
    failed += p.failed;
    if (p.failed > 0) failures.push_back(p.first_error);
    return p;
  };
  auto count_at = [](double rate, double seconds) {
    return static_cast<size_t>(std::llround(rate * seconds));
  };

  // Warm-up at the lower rate so the result cache and the server's pool
  // are in steady state before anything is timed.
  run(PathsOf(stream.Take(count_at(rates[0], 0.5))), rates[0], true);

  const std::vector<Request> r1_requests =
      stream.Take(count_at(rates[0], phase_s));
  const PhaseResult r1 = run(PathsOf(r1_requests), rates[0], true);
  EmitPhase(&out, "r1", r1);

  if (trace) {
    // Server-side view of the r1 phase, then /healthz alone at r1, then
    // the in-process engine on the r1 key stream.
    ++attempted;
    const HttpResult stats = HttpGet(port, "/stats");
    util::JsonValue parsed;
    const util::JsonValue* window = nullptr;
    if (stats.ok && stats.status == 200 &&
        util::ParseJson(stats.body, &parsed)) {
      window = parsed.Find("window");
    }
    const util::JsonValue* latency =
        window != nullptr ? window->Find("latency_ms") : nullptr;
    if (latency == nullptr) {
      ++failed;
      failures.push_back("/stats has no window.latency_ms");
    } else {
      out.Num("obsv.server_p99_ms", latency->NumberOr("p99", -1));
    }
    out.Num("obsv.gen_lag_p99_ms", r1.lag_p99_ms);

    const PhaseResult health = run(
        std::vector<std::string>(count_at(rates[0], phase_s), "/healthz"),
        rates[0], false);
    out.Num("obsv.healthz_p50_ms", health.p50_ms);
    out.Num("obsv.healthz_p99_ms", health.p99_ms);

    serve::QueryEngine engine;
    engine.Publish(snapshot);
    const auto& hits = util::Metrics().GetCounter("ltee.serve.cache.hits");
    const auto& misses = util::Metrics().GetCounter("ltee.serve.cache.misses");
    const uint64_t hits0 = hits.value(), misses0 = misses.value();
    std::vector<std::vector<double>> us(kNumKinds);
    for (const Request& r : r1_requests) {
      const auto begin = Clock::now();
      const serve::QueryResult result = Answer(&engine, r);
      us[static_cast<int>(r.kind)].push_back(
          MsBetween(begin, Clock::now()) * 1000.0);
      if (result.status != 200) {
        ++failed;
        failures.push_back("engine " + r.path + ": status " +
                           std::to_string(result.status));
      }
    }
    for (int k = 0; k < kNumKinds; ++k) {
      out.Num(std::string("serve.engine_us.") + KindName(static_cast<Kind>(k)),
              Median(us[k]));
    }
    const double h = static_cast<double>(hits.value() - hits0);
    const double m = static_cast<double>(misses.value() - misses0);
    out.Num("serve.cache_hit_ratio", h + m > 0 ? h / (h + m) : 0.0);
  }
  if (trace) {
    // The r2 phase and the capacity search feed per-layer metrics only.
    const PhaseResult r2 =
        run(PathsOf(stream.Take(count_at(rates[1], phase_s))), rates[1], true);
    EmitPhase(&out, "r2", r2);

    // max_rps: binary search over the fixed ladder for the highest rung
    // that holds. A rung that fails gets one retry, so a single burst of
    // outside interference does not decide the search.
    auto holds = [&](double rate, std::string* log) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        const PhaseResult p =
            run(PathsOf(stream.Take(count_at(rate, rung_s))), rate, true);
        const bool held = p.valid && p.p99_window_median_ms <= limit_ms;
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"rate\":%.17g,\"p99_window_median_ms\":%.17g,"
                      "\"lag_growth_ms\":%.17g,\"failed\":%zu,\"held\":%d}",
                      log->empty() ? "" : ",", rate, p.p99_window_median_ms,
                      p.lag_growth_ms, p.failed, held ? 1 : 0);
        *log += buf;
        if (held) return true;
      }
      return false;
    };
    std::string log;
    ptrdiff_t good = -1;
    ptrdiff_t bad = static_cast<ptrdiff_t>(ladder.size());
    while (bad - good > 1) {
      const ptrdiff_t mid = good + (bad - good) / 2;
      if (holds(ladder[static_cast<size_t>(mid)], &log)) {
        good = mid;
      } else {
        bad = mid;
      }
    }
    const double max_rps = good >= 0 ? ladder[static_cast<size_t>(good)] : 0;
    out.Num("max_rps", max_rps);
    out.Raw("rungs", "[" + log + "]");
  }

  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  std::string joined = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    joined += (i ? "," : "") + util::JsonQuote(failures[i]);
  }
  out.Raw("failures", joined + "]");

  std::ofstream file(flags.at("out"));
  file << out.Done() << "\n";
  if (!file) {
    std::fprintf(stderr, "perfbench_load: cannot write %s\n",
                 flags.at("out").c_str());
    return 1;
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench_load: %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}
