#ifndef LTEE_PIPELINE_DELTA_H_
#define LTEE_PIPELINE_DELTA_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "kb/applier.h"
#include "pipeline/kb_update.h"
#include "pipeline/pipeline.h"
#include "webtable/web_table.h"

namespace ltee::pipeline {

/// Everything a later delta ingest needs to continue a finished run
/// without recomputing unaffected classes: the run configuration
/// fingerprint (training seed, dedup, min-facts — a delta run must
/// reproduce them exactly; the trained pipeline itself travels in a
/// separate model file, see pipeline/model_io), the last published
/// snapshot version, the run class order, per-iteration mappings and
/// per-class feedback, and the typed changeset the run staged against
/// the immutable base KB.
struct DeltaState {
  uint64_t seed = 7;
  bool dedup = false;
  size_t min_facts = 0;
  uint64_t snapshot_version = 1;
  std::vector<kb::ClassId> classes;
  std::vector<matching::SchemaMapping> mappings;
  std::vector<std::vector<ClassFeedback>> feedback;
  kb::ChangeSet changes;
};

/// Line-based TSV serialization. Doubles are printed with %.17g, so a
/// save/load round trip is bit-exact — required for the mapping diff to
/// compare a reloaded baseline against a fresh run without false drift.
void SaveDeltaState(const DeltaState& state, std::ostream& out);
std::optional<DeltaState> LoadDeltaState(std::istream& in);

/// Options of the per-class post-run staging pass (the batch CLI loop and
/// DeltaIngest share it, so batch and delta cannot diverge).
struct StageClassOptions {
  bool dedup = false;
  KbUpdateOptions update;
  /// When non-null, accepted new entities are exported as N-Triples here.
  std::ostream* ntriples = nullptr;
  std::string uri_prefix = "http://ltee.example.org/";
};

/// One class result staged into a typed ClassChange.
struct StagedClassChange {
  kb::ClassChange change;
  size_t dedup_merges = 0;
  /// Slot-fill proposal statistics (confirmations/conflicts).
  size_t confirmations = 0;
  size_t conflicts = 0;
};

/// Post-run processing of one class result: optional dedup -> N-Triples
/// export -> slot filling against the (immutable) base KB -> min-facts
/// filter. Produces the ClassChange a kb::Applier stages; nothing mutates
/// the KB here.
StagedClassChange StageClassRun(const kb::KnowledgeBase& kb,
                                const ClassRunResult& class_run,
                                const StageClassOptions& options = {});

/// Result of one delta ingest.
struct DeltaIngestResult {
  size_t new_tables = 0;
  /// Classes the scoped run recomputed, in run order.
  std::vector<kb::ClassId> recomputed;
  /// The scoped run itself (classes holds recomputed classes only).
  PipelineRunResult run;
};

/// Ingests a batch of new tables incrementally: appends them to `corpus`
/// (the prepared view extends in place, token ids stay stable), runs the
/// scoped pipeline against the baseline in `state`, restages the changeset
/// entries of every recomputed class, and updates `state` (mappings,
/// feedback, changeset) in place. The KB is NOT mutated — apply
/// `state->changes` through a kb::Applier to materialize the new version,
/// then publish a serve::Snapshot from it. By construction the updated
/// changeset equals the one a full run over the grown corpus would stage,
/// so full(A+B) and full(A)+delta(B) converge to identical KBs.
DeltaIngestResult DeltaIngest(const LteePipeline& pipe,
                              webtable::TableCorpus* corpus,
                              std::vector<webtable::WebTable> batch,
                              DeltaState* state);

}  // namespace ltee::pipeline

#endif  // LTEE_PIPELINE_DELTA_H_
