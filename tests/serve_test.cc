// Unit tests for the serving layer: snapshot building (dense views,
// per-class lists, label search, deterministic content hash), the binary
// snapshot file format (round trip, checksum/truncation/magic
// rejection), the query engine (JSON rendering, result cache, version
// keying), the sharded LRU cache, the regression-gate units behind
// report_diff (ms_p95 latency percentiles, ops_s throughput), the /kb/*
// HTTP endpoints over a real socket, the RCU snapshot swap under
// concurrent readers, and `ltee_cli serve`'s clean SIGTERM shutdown.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "kb/knowledge_base.h"
#include "obsv/http_client.h"
#include "obsv/http_server.h"
#include "obsv/regression_gate.h"
#include "obsv/status_server.h"
#include "serve/kb_endpoints.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/snapshot.h"
#include "serve/snapshot_io.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/metrics.h"

namespace ltee {
namespace {

/// A small two-class KB with labelled, fact-bearing instances.
kb::KnowledgeBase MakeKb(size_t players = 4) {
  kb::KnowledgeBase kb;
  const kb::ClassId agent = kb.AddClass("Agent");
  const kb::ClassId player = kb.AddClass("Player", agent);
  const kb::ClassId song = kb.AddClass("Song", agent);
  const kb::PropertyId team =
      kb.AddProperty(player, "team", types::DataType::kText, {"club"});
  const kb::PropertyId number =
      kb.AddProperty(player, "number", types::DataType::kNominalInteger);
  const kb::PropertyId year =
      kb.AddProperty(song, "releaseYear", types::DataType::kDate);
  for (size_t i = 0; i < players; ++i) {
    const std::string n = std::to_string(i);
    const auto id = kb.AddInstance(player, {"Player " + n, "P" + n}, 0.5);
    const std::string parity = std::to_string(i % 2);
    kb.AddFact(id, team, types::Value::Text("Team " + parity));
    kb.AddFact(id, number, types::Value::OfInteger(static_cast<int64_t>(i)));
  }
  const auto ballad = kb.AddInstance(song, {"Midnight Ballad"}, 0.9);
  kb.AddFact(ballad, year, types::Value::YearDate(1987));
  return kb;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Snapshot

TEST(Snapshot, BuildsDenseViewOfKb) {
  auto kb = MakeKb();
  auto snap = serve::Snapshot::Build(kb, {.version = 7, .num_shards = 2});
  EXPECT_EQ(snap->version(), 7u);
  EXPECT_EQ(snap->num_shards(), 2u);
  EXPECT_EQ(snap->num_entities(), 5u);
  EXPECT_EQ(snap->num_classes(), 3u);
  EXPECT_EQ(snap->num_properties(), 3u);
  EXPECT_EQ(snap->num_facts(), 9u);

  const serve::SnapshotEntity* entity = snap->entity(0);
  ASSERT_NE(entity, nullptr);
  EXPECT_EQ(entity->labels[0], "Player 0");
  ASSERT_EQ(entity->facts.size(), 2u);
  EXPECT_EQ(snap->property(entity->facts[0].property)->name, "team");
  EXPECT_EQ(snap->entity(-1), nullptr);
  EXPECT_EQ(snap->entity(99), nullptr);

  const serve::SnapshotClassInfo* player = snap->FindClass("Player");
  ASSERT_NE(player, nullptr);
  EXPECT_EQ(player->num_instances, 4u);
  EXPECT_EQ(player->num_facts, 8u);
  EXPECT_EQ(snap->InstancesOfClass(player->id).size(), 4u);
  EXPECT_EQ(snap->FindClass("Nope"), nullptr);
  EXPECT_TRUE(snap->InstancesOfClass(99).empty());
}

TEST(Snapshot, LabelLookupNormalizes) {
  auto kb = MakeKb();
  auto snap = serve::Snapshot::Build(kb, {});
  EXPECT_EQ(snap->EntitiesByLabel("Midnight Ballad").size(), 1u);
  EXPECT_EQ(snap->EntitiesByLabel("  MIDNIGHT   ballad ").size(), 1u);
  EXPECT_TRUE(snap->EntitiesByLabel("unknown thing").empty());
}

TEST(Snapshot, SearchRanksAcrossShards) {
  auto kb = MakeKb(8);
  // More shards than a trivial corpus would need, so the merge path is
  // actually exercised: entities land in id % 3 shards.
  auto snap = serve::Snapshot::Build(kb, {.num_shards = 3});
  const auto hits = snap->Search("player 3", 5);
  ASSERT_FALSE(hits.empty());
  // The exact-label entity outranks entities sharing only "player".
  EXPECT_EQ(hits[0].id, 3);
  EXPECT_LE(hits.size(), 5u);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i].score, hits[i - 1].score);
  }
  EXPECT_TRUE(snap->Search("zzz qqq", 5).empty());
  EXPECT_TRUE(snap->Search("player", 0).empty());
}

TEST(Snapshot, ContentHashIsDeterministicAndContentSensitive) {
  auto kb1 = MakeKb();
  auto kb2 = MakeKb();
  auto a = serve::Snapshot::Build(kb1, {.version = 1});
  auto b = serve::Snapshot::Build(kb2, {.version = 2, .num_shards = 8});
  // Equal content: equal hash, regardless of version and shard count.
  EXPECT_EQ(a->content_hash(), b->content_hash());

  kb2.AddInstance(kb2.FindClass("Song"), {"Another Song"}, 0.1);
  auto c = serve::Snapshot::Build(kb2, {.version = 2});
  EXPECT_NE(a->content_hash(), c->content_hash());
}

TEST(Snapshot, EmptyKbStillServes) {
  kb::KnowledgeBase kb;
  auto snap = serve::Snapshot::Build(kb, {});
  EXPECT_EQ(snap->num_entities(), 0u);
  EXPECT_TRUE(snap->Search("anything", 3).empty());
}

// ---------------------------------------------------------------------------
// Snapshot file format

TEST(SnapshotIo, RoundTripsKbAndVersion) {
  auto kb = MakeKb();
  const std::string path = TempPath("snap_roundtrip.bin");
  std::string error;
  ASSERT_TRUE(serve::SaveSnapshotFile(kb, 42, path, &error)) << error;

  kb::KnowledgeBase loaded;
  uint64_t version = 0;
  ASSERT_TRUE(serve::LoadSnapshotFile(path, &loaded, &version, &error))
      << error;
  EXPECT_EQ(version, 42u);
  EXPECT_EQ(loaded.num_instances(), kb.num_instances());
  EXPECT_EQ(loaded.num_classes(), kb.num_classes());
  EXPECT_EQ(loaded.property(0).labels, kb.property(0).labels);

  // The reloaded KB builds a snapshot with the identical content hash —
  // the round trip is logically lossless.
  auto original = serve::Snapshot::Build(kb, {.version = 42});
  auto reloaded = serve::LoadSnapshot(path, 4, &error);
  ASSERT_NE(reloaded, nullptr) << error;
  EXPECT_EQ(reloaded->version(), 42u);
  EXPECT_EQ(reloaded->content_hash(), original->content_hash());
  std::remove(path.c_str());
}

TEST(SnapshotIo, RejectsCorruptTruncatedAndForeignFiles) {
  auto kb = MakeKb();
  const std::string path = TempPath("snap_corrupt.bin");
  std::string error;
  ASSERT_TRUE(serve::SaveSnapshotFile(kb, 1, path, &error)) << error;
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }

  const auto write_and_try = [&path](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    out.close();
    kb::KnowledgeBase scratch;
    std::string err;
    const bool ok = serve::LoadSnapshotFile(path, &scratch, nullptr, &err);
    return std::make_pair(ok, err);
  };

  // Flip one payload byte: checksum must catch it.
  std::string flipped = bytes;
  flipped[flipped.size() - 3] ^= 0x40;
  auto [ok1, err1] = write_and_try(flipped);
  EXPECT_FALSE(ok1);
  EXPECT_NE(err1.find("checksum"), std::string::npos) << err1;

  // Truncation: payload size mismatch.
  auto [ok2, err2] = write_and_try(bytes.substr(0, bytes.size() - 10));
  EXPECT_FALSE(ok2);
  EXPECT_NE(err2.find("size mismatch"), std::string::npos) << err2;

  // Not a snapshot at all.
  auto [ok3, err3] = write_and_try("C\t0\tAgent\t-1\n");
  EXPECT_FALSE(ok3);
  EXPECT_NE(err3.find("magic"), std::string::npos) << err3;

  kb::KnowledgeBase scratch;
  EXPECT_FALSE(serve::LoadSnapshotFile(TempPath("snap_does_not_exist.bin"),
                                       &scratch, nullptr, &error));
  std::remove(path.c_str());
}

/// Systematic byte-mangling of a valid snapshot file. Every mangling
/// must produce a clean `false` + error from LoadSnapshotFile — never a
/// crash, hang, or a silently wrong KB. Payload manglings recompute the
/// FNV-1a checksum so they reach the decoder's own range checks instead
/// of being caught by the integrity layer.
TEST(SnapshotIo, ByteManglingsFailCleanly) {
  // A minimal KB with a hand-computable payload layout:
  //   [0]  num_classes=1   [4] len=1 [8] 'A'      [9]  parent int16
  //   [11] num_properties=1 [15] cls int16 [17] len=1 [21] 'p'
  //   [22] type uint8      [23] extras uint32     [27] num_instances
  kb::KnowledgeBase kb;
  kb.AddClass("A");
  kb.AddProperty(0, "p", types::DataType::kText);
  const std::string path = TempPath("snap_mangle.bin");
  std::string error;
  ASSERT_TRUE(serve::SaveSnapshotFile(kb, 9, path, &error)) << error;
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  // Header: magic[0..7], format u32 @8, version u64 @12, checksum u64
  // @20, payload size u64 @28, payload @36.
  constexpr size_t kHeader = 36;
  ASSERT_GT(bytes.size(), kHeader);

  const auto fnv1a = [](const std::string& s) {
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    return h;
  };
  const auto expect_rejected = [&path](const std::string& content,
                                       const std::string& needle) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << content;
    }
    kb::KnowledgeBase scratch;
    std::string err;
    EXPECT_FALSE(serve::LoadSnapshotFile(path, &scratch, nullptr, &err));
    EXPECT_NE(err.find(needle), std::string::npos)
        << "expected \"" << needle << "\" in: " << err;
  };
  // Rebuilds a consistent file around a mangled payload: the checksum
  // and size fields are recomputed so only the decoder can object.
  const auto reseal = [&bytes, &fnv1a, kHeader](const std::string& payload) {
    std::string out = bytes.substr(0, kHeader);
    const uint64_t checksum = fnv1a(payload);
    const uint64_t size = payload.size();
    std::memcpy(out.data() + 20, &checksum, sizeof(checksum));
    std::memcpy(out.data() + 28, &size, sizeof(size));
    return out + payload;
  };
  std::string payload = bytes.substr(kHeader);

  // Truncations everywhere in the header land in "bad magic" (file too
  // short to even carry a header).
  for (const size_t cut : {size_t{0}, size_t{3}, size_t{8}, size_t{20},
                           kHeader - 1}) {
    expect_rejected(bytes.substr(0, cut), "magic");
  }
  {  // One flipped magic byte.
    std::string mangled = bytes;
    mangled[5] ^= 0x01;
    expect_rejected(mangled, "magic");
  }
  {  // Unsupported format version.
    std::string mangled = bytes;
    mangled[8] = 0x7f;
    expect_rejected(mangled, "format version");
  }
  {  // Header lies about the payload size.
    std::string mangled = bytes;
    mangled[28] ^= 0x01;
    expect_rejected(mangled, "size mismatch");
  }
  // Trailing garbage after the payload.
  expect_rejected(bytes + "xyz", "size mismatch");
  {  // Corrupted checksum field.
    std::string mangled = bytes;
    mangled[21] ^= 0x10;
    expect_rejected(mangled, "checksum");
  }

  // -- resealed manglings: integrity layer passes, decoder must catch --

  {  // Class parent below -1 (would index out of bounds in Ancestors).
    std::string p = payload;
    const int16_t bogus = -7;
    std::memcpy(p.data() + 9, &bogus, sizeof(bogus));
    expect_rejected(reseal(p), "class parent out of range");
  }
  {  // Property data-type byte outside the enum.
    std::string p = payload;
    p[22] = static_cast<char>(0xff);
    expect_rejected(reseal(p), "data type out of range");
  }
  {  // A string length pointing far past the end of the payload.
    std::string p = payload;
    const uint32_t huge = 0x7fffffffu;
    std::memcpy(p.data() + 4, &huge, sizeof(huge));
    expect_rejected(reseal(p), "truncated");
  }
  // Payload cut mid-record, resealed so size and checksum agree.
  expect_rejected(reseal(payload.substr(0, payload.size() / 2)),
                  "truncated");
  // Extra payload bytes the decoder never consumes.
  expect_rejected(reseal(payload + std::string(4, '\0')), "trailing bytes");

  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sharded LRU cache

TEST(ShardedLruCache, EvictsLeastRecentlyUsedPerShard) {
  serve::ShardedLruCache<std::string> cache(1, 2);
  std::string out;
  cache.Put("a", "1");
  cache.Put("b", "2");
  ASSERT_TRUE(cache.Get("a", &out));  // refreshes "a"
  cache.Put("c", "3");                // evicts "b"
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_FALSE(cache.Get("b", &out));
  ASSERT_TRUE(cache.Get("c", &out));
  EXPECT_EQ(out, "3");
  EXPECT_EQ(cache.size(), 2u);

  cache.Put("c", "3b");  // refresh keeps size
  ASSERT_TRUE(cache.Get("c", &out));
  EXPECT_EQ(out, "3b");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCache, EvictionAccountingReconciles) {
  // One shard of capacity 4, overfilled by 10 distinct keys: exactly 6
  // evictions, and the eviction counter mirror sees each one.
  serve::ShardedLruCache<std::string> cache(1, 4);
  util::Counter counter;
  cache.SetEvictionCounter(&counter);

  for (int i = 0; i < 10; ++i) {
    cache.Put("key" + std::to_string(i), std::to_string(i));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 6u);
  EXPECT_EQ(counter.value(), 6u);

  // Refreshing a resident key is not an eviction.
  cache.Put("key9", "again");
  EXPECT_EQ(cache.evictions(), 6u);

  // Hits/misses/evictions reconcile: the 4 newest keys hit, the 6
  // evicted ones miss, and insertions - evictions == resident size.
  std::string out;
  uint64_t observed_hits = 0, observed_misses = 0;
  for (int i = 0; i < 10; ++i) {
    (cache.Get("key" + std::to_string(i), &out) ? observed_hits
                                                : observed_misses)++;
  }
  EXPECT_EQ(observed_hits, 4u);
  EXPECT_EQ(observed_misses, 6u);
  EXPECT_EQ(10u - cache.evictions(), cache.size());
}

TEST(QueryEngine, CacheEvictionsExportedAsMetric) {
  auto kb = MakeKb();
  // A deliberately tiny cache: 1 shard x 2 entries, so distinct entity
  // lookups overflow it immediately.
  serve::QueryEngineOptions options;
  options.cache_shards = 1;
  options.cache_capacity_per_shard = 2;
  serve::QueryEngine engine(options);
  engine.Publish(serve::Snapshot::Build(kb, {.version = 1}));

  auto& evictions = util::Metrics().GetCounter("ltee.serve.cache.evictions");
  auto& misses = util::Metrics().GetCounter("ltee.serve.cache.misses");
  const uint64_t evictions_before = evictions.value();
  const uint64_t misses_before = misses.value();
  const uint64_t cache_evictions_before = engine.cache().evictions();

  for (int64_t id = 0; id < 5; ++id) engine.EntityById(id);

  // 5 distinct keys through a 2-entry cache: 5 misses, 3 evictions —
  // and misses reconcile against resident + evicted entries.
  EXPECT_EQ(misses.value() - misses_before, 5u);
  const uint64_t evicted = engine.cache().evictions() - cache_evictions_before;
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(evictions.value() - evictions_before, evicted);
  EXPECT_EQ(engine.cache().size() + evicted, 5u);
}

// ---------------------------------------------------------------------------
// Query engine

TEST(QueryEngine, ServesEntitiesSearchAndClassesAsValidJson) {
  auto kb = MakeKb();
  serve::QueryEngine engine;
  EXPECT_EQ(engine.EntityById(0).status, 503);
  engine.Publish(serve::Snapshot::Build(kb, {.version = 3}));

  for (auto result :
       {engine.EntityById(0), engine.EntityByLabel("Midnight Ballad"),
        engine.Search("player", 3), engine.Classes(),
        engine.ClassInstances("Player", 2), engine.SnapshotInfo(),
        engine.EntityById(999), engine.ClassInstances("Nope", 2)}) {
    std::string error;
    EXPECT_TRUE(util::JsonIsValid(result.body, &error))
        << result.body << ": " << error;
  }

  const auto entity = engine.EntityById(0);
  EXPECT_EQ(entity.status, 200);
  EXPECT_NE(entity.body.find("\"snapshot_version\":3"), std::string::npos);
  EXPECT_NE(entity.body.find("\"Player 0\""), std::string::npos);
  EXPECT_NE(entity.body.find("\"team\""), std::string::npos);

  EXPECT_EQ(engine.EntityById(999).status, 404);
  EXPECT_EQ(engine.EntityByLabel("nope").status, 404);
  EXPECT_EQ(engine.ClassInstances("Nope", 2).status, 404);

  const auto search = engine.Search("midnight ballad", 5);
  EXPECT_EQ(search.status, 200);
  EXPECT_NE(search.body.find("Midnight Ballad"), std::string::npos);

  const auto classes = engine.Classes();
  EXPECT_NE(classes.body.find("\"Player\""), std::string::npos);
  EXPECT_NE(classes.body.find("\"instances\":4"), std::string::npos);
}

TEST(QueryEngine, CachesRepeatedQueries) {
  auto kb = MakeKb();
  serve::QueryEngine engine;
  engine.Publish(serve::Snapshot::Build(kb, {.version = 1}));

  auto& hits = util::Metrics().GetCounter("ltee.serve.cache.hits");
  auto& misses = util::Metrics().GetCounter("ltee.serve.cache.misses");
  const uint64_t hits_before = hits.value();
  const uint64_t misses_before = misses.value();

  const auto first = engine.EntityById(1);
  EXPECT_EQ(misses.value(), misses_before + 1);
  const auto second = engine.EntityById(1);
  EXPECT_EQ(hits.value(), hits_before + 1);
  EXPECT_EQ(first.body, second.body);
}

TEST(QueryEngine, CacheKeysIncludeSnapshotVersion) {
  auto kb1 = MakeKb(2);
  serve::QueryEngine engine;
  engine.Publish(serve::Snapshot::Build(kb1, {.version = 1}));
  const auto before = engine.Search("player 1", 3);

  // Same query against a richer snapshot must not serve the v1 entry.
  auto kb2 = MakeKb(4);
  engine.Publish(serve::Snapshot::Build(kb2, {.version = 2}));
  const auto after = engine.Search("player 1", 3);
  EXPECT_NE(before.body, after.body);
  EXPECT_NE(after.body.find("\"snapshot_version\":2"), std::string::npos);

  EXPECT_EQ(util::Metrics()
                .GetGauge("ltee.serve.snapshot.version")
                .value(),
            2.0);
}

/// Staleness regression for the result cache during live promotion: a
/// Publish must make every cached prior-version body unreachable at
/// once, even while readers hammer the very queries that warmed it.
/// Each response must be self-consistent (body content matches its own
/// stamped version) and per-reader monotonic — once a reader has seen
/// v2 it must never again be handed a cached v1 body.
TEST(QueryEngine, PublishNeverServesStaleCachedBodies) {
  const auto make_kb = [](const std::string& tag) {
    kb::KnowledgeBase kb;
    const kb::ClassId cls = kb.AddClass("Thing");
    kb.AddInstance(cls, {"payload " + tag}, 1.0);
    return kb;
  };

  serve::QueryEngine engine;
  auto kb1 = make_kb("v1");
  engine.Publish(serve::Snapshot::Build(kb1, {.version = 1}));
  // Warm the cache with v1 entries for the exact queries readers issue.
  ASSERT_EQ(engine.EntityById(0).status, 200);
  ASSERT_EQ(engine.Search("payload", 3).status, 200);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&engine, &stop, &violations] {
      uint64_t highest_seen = 1;
      while (!stop.load()) {
        for (const auto& result :
             {engine.EntityById(0), engine.Search("payload", 3)}) {
          util::JsonValue doc;
          std::string error;
          if (result.status != 200 ||
              !util::ParseJson(result.body, &doc, &error)) {
            ++violations;
            continue;
          }
          const auto version =
              static_cast<uint64_t>(doc.NumberOr("snapshot_version", 0));
          // The body must carry its own version's payload — a v2-stamped
          // response with v1 content would be a torn cache entry.
          if (result.body.find("payload v" + std::to_string(version)) ==
              std::string::npos) {
            ++violations;
          }
          // Monotonic per reader: Publish swaps the snapshot pointer
          // before any cache fill for the new version, so a reader that
          // has observed v2 can never fall back to a v1 cache hit.
          if (version < highest_seen) ++violations;
          if (version > highest_seen) highest_seen = version;
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto kb2 = make_kb("v2");
  engine.Publish(serve::Snapshot::Build(kb2, {.version = 2}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0);

  // The prior-version entries are unreachable for good: both warmed
  // queries now serve v2 bodies.
  EXPECT_NE(engine.EntityById(0).body.find("payload v2"),
            std::string::npos);
  EXPECT_NE(engine.Search("payload", 3).body.find("payload v2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Regression-gate units (the report_diff core)

obsv::GateMetricMap OneMetric(const std::string& name, double value,
                              const std::string& unit) {
  obsv::GateMetricMap map;
  map[name] = {value, unit};
  return map;
}

TEST(RegressionGate, LatencyPercentileUnitsGateUpward) {
  using obsv::GateDirection;
  EXPECT_EQ(obsv::GateDirectionOf("ms_p50"), GateDirection::kHigherIsWorse);
  EXPECT_EQ(obsv::GateDirectionOf("ms_p95"), GateDirection::kHigherIsWorse);
  EXPECT_EQ(obsv::GateDirectionOf("ms_p99"), GateDirection::kHigherIsWorse);
  EXPECT_TRUE(obsv::IsLatencyPercentileUnit("ms_p95"));
  EXPECT_FALSE(obsv::IsLatencyPercentileUnit("ms"));

  obsv::GateThresholds thresholds;  // time +25%, floor 1ms
  // 10ms -> 20ms p95: +100%, above the floor — regression.
  auto report = obsv::CompareGateMetrics(
      OneMetric("serve_load/latency_p95", 10.0, "ms_p95"),
      OneMetric("serve_load/latency_p95", 20.0, "ms_p95"), thresholds);
  ASSERT_EQ(report.deltas.size(), 1u);
  EXPECT_TRUE(report.deltas[0].regressed);
  EXPECT_EQ(report.regressions, 1u);

  // Within threshold: no regression.
  report = obsv::CompareGateMetrics(
      OneMetric("serve_load/latency_p95", 10.0, "ms_p95"),
      OneMetric("serve_load/latency_p95", 11.0, "ms_p95"), thresholds);
  EXPECT_EQ(report.regressions, 0u);

  // Microsecond-scale noise below the 1ms floor never gates, even at
  // +200%.
  report = obsv::CompareGateMetrics(
      OneMetric("serve_load/latency_p95", 0.005, "ms_p95"),
      OneMetric("serve_load/latency_p95", 0.015, "ms_p95"), thresholds);
  EXPECT_EQ(report.regressions, 0u);

  // Crossing the floor upward does gate.
  report = obsv::CompareGateMetrics(
      OneMetric("serve_load/latency_p95", 0.5, "ms_p95"),
      OneMetric("serve_load/latency_p95", 2.0, "ms_p95"), thresholds);
  EXPECT_EQ(report.regressions, 1u);
}

TEST(RegressionGate, ThroughputGatesDownwardImprovementsPass) {
  obsv::GateThresholds thresholds;
  EXPECT_EQ(obsv::GateDirectionOf("ops_s"),
            obsv::GateDirection::kLowerIsWorse);
  // Halving throughput regresses; doubling it does not.
  auto report = obsv::CompareGateMetrics(
      OneMetric("serve_load/throughput", 1000.0, "ops_s"),
      OneMetric("serve_load/throughput", 500.0, "ops_s"), thresholds);
  EXPECT_EQ(report.regressions, 1u);
  report = obsv::CompareGateMetrics(
      OneMetric("serve_load/throughput", 1000.0, "ops_s"),
      OneMetric("serve_load/throughput", 2000.0, "ops_s"), thresholds);
  EXPECT_EQ(report.regressions, 0u);
  // A big latency drop is an improvement, not a regression.
  report = obsv::CompareGateMetrics(
      OneMetric("serve_load/latency_p95", 20.0, "ms_p95"),
      OneMetric("serve_load/latency_p95", 5.0, "ms_p95"), thresholds);
  EXPECT_EQ(report.regressions, 0u);
}

TEST(RegressionGate, PctOverheadUnitGatesUpwardAboveItsFloor) {
  EXPECT_EQ(obsv::GateDirectionOf("pct"),
            obsv::GateDirection::kHigherIsWorse);
  obsv::GateThresholds thresholds;  // time +25%, min_pct floor 3.0

  // Both sides under the 3% budget: relative jumps are noise, no gate —
  // this is what keeps the profiler-overhead metric quiet at 1% -> 2%.
  auto report = obsv::CompareGateMetrics(
      OneMetric("micro_perf/profiler_overhead_pct", 1.0, "pct"),
      OneMetric("micro_perf/profiler_overhead_pct", 2.0, "pct"), thresholds);
  EXPECT_EQ(report.regressions, 0u);

  // Crossing the budget with a big relative jump gates.
  report = obsv::CompareGateMetrics(
      OneMetric("micro_perf/profiler_overhead_pct", 2.0, "pct"),
      OneMetric("micro_perf/profiler_overhead_pct", 5.0, "pct"), thresholds);
  EXPECT_EQ(report.regressions, 1u);

  // Above the floor but within the relative threshold: still fine.
  report = obsv::CompareGateMetrics(
      OneMetric("micro_perf/profiler_overhead_pct", 4.0, "pct"),
      OneMetric("micro_perf/profiler_overhead_pct", 4.5, "pct"), thresholds);
  EXPECT_EQ(report.regressions, 0u);

  // Overhead going down is an improvement, never a regression.
  report = obsv::CompareGateMetrics(
      OneMetric("micro_perf/profiler_overhead_pct", 5.0, "pct"),
      OneMetric("micro_perf/profiler_overhead_pct", 1.0, "pct"), thresholds);
  EXPECT_EQ(report.regressions, 0u);
}

TEST(RegressionGate, MbMemoryUnitGatesUpwardAboveItsFloor) {
  EXPECT_EQ(obsv::GateDirectionOf("mb"),
            obsv::GateDirection::kHigherIsWorse);
  obsv::GateThresholds thresholds;  // time +25%, min_mb floor 50.0

  // The acceptance scenario: a 100 MB -> 150 MB peak-RSS jump is +50%,
  // both sides past the floor — must gate.
  auto report = obsv::CompareGateMetrics(
      OneMetric("run/peak_rss_mb", 100.0, "mb"),
      OneMetric("run/peak_rss_mb", 150.0, "mb"), thresholds);
  ASSERT_EQ(report.deltas.size(), 1u);
  EXPECT_TRUE(report.deltas[0].regressed);
  EXPECT_EQ(report.regressions, 1u);

  // Both sides under the 50 MB floor: allocator noise, never gates even
  // at +150%.
  report = obsv::CompareGateMetrics(
      OneMetric("run/peak_rss_mb", 12.0, "mb"),
      OneMetric("run/peak_rss_mb", 30.0, "mb"), thresholds);
  EXPECT_EQ(report.regressions, 0u);

  // Crossing the floor upward with a big relative jump gates.
  report = obsv::CompareGateMetrics(
      OneMetric("run/peak_rss_mb", 40.0, "mb"),
      OneMetric("run/peak_rss_mb", 80.0, "mb"), thresholds);
  EXPECT_EQ(report.regressions, 1u);

  // Above the floor but within the relative threshold: fine.
  report = obsv::CompareGateMetrics(
      OneMetric("run/peak_rss_mb", 100.0, "mb"),
      OneMetric("run/peak_rss_mb", 110.0, "mb"), thresholds);
  EXPECT_EQ(report.regressions, 0u);

  // Memory going down is an improvement, never a regression.
  report = obsv::CompareGateMetrics(
      OneMetric("run/peak_rss_mb", 150.0, "mb"),
      OneMetric("run/peak_rss_mb", 100.0, "mb"), thresholds);
  EXPECT_EQ(report.regressions, 0u);

  // A raised --min-mb floor silences a pair the default would gate.
  thresholds.min_mb = 200.0;
  report = obsv::CompareGateMetrics(
      OneMetric("run/peak_rss_mb", 100.0, "mb"),
      OneMetric("run/peak_rss_mb", 150.0, "mb"), thresholds);
  EXPECT_EQ(report.regressions, 0u);
}

TEST(RegressionGate, FlattensRunReportPeakRssAsMbMetric) {
  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::ParseJson(
      R"({"total_seconds":1.5,"peak_rss_bytes":157286400,)"
      R"("stages":[{"stage":"prepare","seconds":0.5,"live_bytes_delta":1024}],)"
      R"("metrics":{"counters":{},"gauges":{}}})",
      &doc, &error))
      << error;
  obsv::GateMetricMap map;
  ASSERT_TRUE(obsv::FlattenGateSnapshot(doc, &map, &error)) << error;
  ASSERT_TRUE(map.count("run/peak_rss_mb"));
  EXPECT_DOUBLE_EQ(map.at("run/peak_rss_mb").value, 150.0);
  EXPECT_EQ(map.at("run/peak_rss_mb").unit, "mb");

  // Reports without the field (older snapshots, unsupported platforms
  // writing 0) flatten without the metric — no spurious comparisons.
  util::JsonValue old_doc;
  ASSERT_TRUE(util::ParseJson(
      R"({"total_seconds":1.5,"peak_rss_bytes":0,"stages":[],)"
      R"("metrics":{"counters":{},"gauges":{}}})",
      &old_doc, &error))
      << error;
  obsv::GateMetricMap old_map;
  ASSERT_TRUE(obsv::FlattenGateSnapshot(old_doc, &old_map, &error)) << error;
  EXPECT_FALSE(old_map.count("run/peak_rss_mb"));
}

TEST(RegressionGate, FlattensBenchHistoryEntriesWithUnits) {
  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::ParseJson(
      R"({"commit":"abc","results":[)"
      R"({"bench":"serve_load","metric":"latency_p95","value":3.5,"unit":"ms_p95"},)"
      R"({"bench":"serve_load","metric":"throughput","value":1200,"unit":"ops_s"}]})",
      &doc, &error))
      << error;
  obsv::GateMetricMap map;
  ASSERT_TRUE(obsv::FlattenGateSnapshot(doc, &map, &error)) << error;
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at("serve_load/latency_p95").unit, "ms_p95");
  EXPECT_EQ(map.at("serve_load/throughput").value, 1200.0);

  util::JsonValue bogus;
  ASSERT_TRUE(util::ParseJson("{\"x\":1}", &bogus, &error));
  obsv::GateMetricMap empty;
  EXPECT_FALSE(obsv::FlattenGateSnapshot(bogus, &empty, &error));
}

// ---------------------------------------------------------------------------
// HTTP endpoints

TEST(KbEndpoints, ServeEntitySearchClassesOverHttp) {
  auto kb = MakeKb();
  serve::QueryEngine engine;
  engine.Publish(serve::Snapshot::Build(kb, {.version = 5}));

  obsv::HttpServer server;
  serve::RegisterKbEndpoints(&server, &engine);
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;

  int status = 0;
  std::string body;
  ASSERT_TRUE(obsv::HttpGet(server.port(), "/kb/entity?id=0", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(util::JsonIsValid(body, &error)) << body << ": " << error;
  EXPECT_NE(body.find("Player 0"), std::string::npos);

  ASSERT_TRUE(obsv::HttpGet(server.port(),
                            "/kb/entity?label=midnight+ballad", &status,
                            &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("Midnight Ballad"), std::string::npos);

  ASSERT_TRUE(obsv::HttpGet(server.port(), "/kb/search?q=player&k=2",
                            &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(util::JsonIsValid(body, &error)) << body << ": " << error;

  ASSERT_TRUE(obsv::HttpGet(server.port(), "/kb/classes", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"Player\""), std::string::npos);

  ASSERT_TRUE(obsv::HttpGet(server.port(), "/kb/snapshot", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"snapshot_version\":5"), std::string::npos);

  // Parameter and lookup failures per RFC 9110.
  ASSERT_TRUE(obsv::HttpGet(server.port(), "/kb/entity", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 400);
  ASSERT_TRUE(obsv::HttpGet(server.port(), "/kb/entity?id=banana", &status,
                            &body, &error))
      << error;
  EXPECT_EQ(status, 400);
  ASSERT_TRUE(obsv::HttpGet(server.port(), "/kb/search", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 400);
  ASSERT_TRUE(obsv::HttpGet(server.port(), "/kb/entity?id=12345", &status,
                            &body, &error))
      << error;
  EXPECT_EQ(status, 404);

  // The serve metrics observed this traffic.
  const auto snapshot = util::Metrics().Snapshot();
  bool saw_requests = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "ltee.serve.requests") saw_requests = value > 0;
  }
  EXPECT_TRUE(saw_requests);
  server.Stop();
}

/// The serve series must reach the Prometheus exposition on the same
/// StatusServer that `ltee_cli serve` runs, name-mangled per the shared
/// scheme (ltee.serve.cache.hits -> ltee_serve_cache_hits_total).
TEST(KbEndpoints, ServeMetricsAppearOnPrometheusEndpoint) {
  auto kb = MakeKb();
  serve::QueryEngine engine;
  engine.Publish(serve::Snapshot::Build(kb, {.version = 7}));

  obsv::StatusServer status_server;
  serve::RegisterKbEndpoints(&status_server.http(), &engine);
  std::string error;
  ASSERT_TRUE(status_server.Start(0, &error)) << error;

  int status = 0;
  std::string body;
  ASSERT_TRUE(obsv::HttpGet(status_server.port(), "/kb/search?q=player&k=2",
                            &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);

  ASSERT_TRUE(obsv::HttpGet(status_server.port(), "/metrics", &status, &body,
                            &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("ltee_serve_requests_total"), std::string::npos);
  EXPECT_NE(body.find("ltee_serve_queries_total"), std::string::npos);
  EXPECT_NE(body.find("ltee_serve_snapshot_version 7"), std::string::npos);
  EXPECT_NE(body.find("ltee_serve_request_ms_bucket"), std::string::npos);
  status_server.Stop();
}

// ---------------------------------------------------------------------------
// Concurrency: the RCU snapshot swap

/// Readers hammer the engine while a writer publishes progressively
/// larger snapshots. Every response must be internally consistent with
/// exactly one published version: snapshot v has v+1 entities and every
/// entity label carries the version stamp. A torn read (fields from two
/// snapshots in one response) or a use-after-free under ASan fails.
TEST(QueryEngine, AtomicSnapshotSwapUnderConcurrentReaders) {
  constexpr int kVersions = 12;
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 400;

  const auto make_versioned_kb = [](uint64_t version) {
    kb::KnowledgeBase kb;
    const kb::ClassId cls = kb.AddClass("Thing");
    // Version v: v+1 entities labelled "thing <v> <i>".
    for (uint64_t i = 0; i <= version; ++i) {
      kb.AddInstance(cls,
                     {"thing v" + std::to_string(version) + " n" +
                      std::to_string(i)},
                     1.0);
    }
    return kb;
  };

  serve::QueryEngine engine;
  {
    auto kb = make_versioned_kb(1);
    engine.Publish(serve::Snapshot::Build(kb, {.version = 1}));
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &done, &failures] {
      for (int i = 0; i < kReadsPerReader && !done.load(); ++i) {
        // /kb/snapshot: entity count must equal version + 1.
        const auto info = engine.SnapshotInfo();
        util::JsonValue doc;
        std::string error;
        if (!util::ParseJson(info.body, &doc, &error)) {
          ++failures;
          continue;
        }
        const double version = doc.NumberOr("snapshot_version", -1);
        const double entities = doc.NumberOr("entities", -1);
        if (entities != version + 1) ++failures;

        // /kb/entity: the label stamp must match the response's claimed
        // version (both fields rendered from one snapshot).
        const auto entity = engine.EntityById(0);
        if (entity.status != 200) {
          ++failures;
          continue;
        }
        util::JsonValue entity_doc;
        if (!util::ParseJson(entity.body, &entity_doc, &error)) {
          ++failures;
          continue;
        }
        const double claimed = entity_doc.NumberOr("snapshot_version", -1);
        const std::string expected =
            "thing v" + std::to_string(static_cast<uint64_t>(claimed)) + " ";
        if (entity.body.find(expected) == std::string::npos) ++failures;
      }
    });
  }

  for (uint64_t version = 2; version <= kVersions; ++version) {
    auto kb = make_versioned_kb(version);
    engine.Publish(serve::Snapshot::Build(kb, {.version = version}));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // After the last publish every new read sees the final version.
  const auto final_info = engine.SnapshotInfo();
  EXPECT_NE(final_info.body.find("\"snapshot_version\":" +
                                 std::to_string(kVersions)),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// `ltee_cli serve` shutdown

/// A loopback TCP port that was free a moment ago (bound, then released).
uint16_t FreeLoopbackPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (fd >= 0 &&
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  if (fd >= 0) ::close(fd);
  return port;
}

TEST(ServeCli, SigtermWhileReadinessLineBlocksStopsCleanly) {
  const std::string snapshot = TempPath("serve_sigterm.bin");
  std::string error;
  ASSERT_TRUE(serve::SaveSnapshotFile(MakeKb(), 1, snapshot, &error)) << error;
  const uint16_t port = FreeLoopbackPort();
  ASSERT_NE(port, 0);

  // stdout is a pipe that is already full, so the readiness line's flush
  // blocks until the pipe drains: the window in which a supervisor that
  // saw /healthz answer sends its SIGTERM.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  size_t filled = 0;
  const char byte = 'x';
  while (::write(fds[1], &byte, 1) == 1) ++filled;
  ::fcntl(fds[1], F_SETFL, 0);

  const std::string port_arg = std::to_string(port);
  const char* argv[] = {LTEE_CLI_PATH, "serve",         "--snapshot",
                        snapshot.c_str(), "--port",      port_arg.c_str(),
                        nullptr};
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(fds[1]);
  bool ready = false;
  for (int attempt = 0; attempt < 200 && !ready; ++attempt) {
    int status = 0;
    std::string body;
    ready = obsv::HttpGet(port, "/healthz", &status, &body, &error) &&
            status == 200;
    if (!ready) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::kill(pid, SIGTERM);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) > 0;) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  std::remove(snapshot.c_str());

  ASSERT_TRUE(ready) << "ltee_cli serve never answered /healthz";
  EXPECT_TRUE(WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0)
      << "wait status " << wait_status;
  EXPECT_NE(out.find("kb service stopped", filled), std::string::npos)
      << out.substr(std::min(filled, out.size()));
}

}  // namespace
}  // namespace ltee
