#ifndef LTEE_TESTS_TEST_DATASET_H_
#define LTEE_TESTS_TEST_DATASET_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "pipeline/model_io.h"
#include "pipeline/pipeline.h"
#include "pipeline/training.h"
#include "synth/dataset.h"
#include "util/random.h"

// Model file written once per ctest run by the shared_model fixture
// (tests/CMakeLists.txt); empty for binaries built without it.
#ifndef LTEE_SHARED_MODEL_PATH
#define LTEE_SHARED_MODEL_PATH ""
#endif

namespace ltee::testing {

/// Shared small synthetic dataset, built once per test binary. Tests must
/// treat it as read-only.
inline const synth::SyntheticDataset& SharedDataset() {
  static const synth::SyntheticDataset* dataset = [] {
    synth::DatasetOptions options;
    options.scale = 0.002;
    options.seed = 20190326;  // EDBT 2019 :-)
    return new synth::SyntheticDataset(synth::BuildDataset(options));
  }();
  return *dataset;
}

/// The gold classes of `ds`, in gold order (the run-class order).
inline std::vector<kb::ClassId> GoldClasses(
    const synth::SyntheticDataset& ds) {
  std::vector<kb::ClassId> classes;
  for (const auto& gs : ds.gold) classes.push_back(gs.cls);
  return classes;
}

/// Gives `pipe` (a fresh pipeline over `ds.kb`, default options; `ds`
/// built like SharedDataset) the pipeline trained on `ds`'s gold standard
/// with Rng(41). Under ctest the shared_model fixture has trained it once
/// and saved it, and this only loads the file; without the file (a test
/// binary run on its own) it trains in-process.
inline void LoadOrTrainSharedModel(const synth::SyntheticDataset& ds,
                                   pipeline::LteePipeline* pipe) {
  const std::string path = LTEE_SHARED_MODEL_PATH;
  if (!path.empty() && std::ifstream(path).good()) {
    std::string error;
    if (pipeline::LoadPipelineModel(path, GoldClasses(ds), pipe, &error)) {
      return;
    }
    // A present but unloadable fixture is a bug, not a reason to train.
    std::fprintf(stderr, "shared model fixture: %s\n", error.c_str());
    std::abort();
  }
  util::Rng rng(41);
  pipeline::TrainPipelineOnGold(pipe, ds.gs_corpus, ds.gold, rng);
}

}  // namespace ltee::testing

#endif  // LTEE_TESTS_TEST_DATASET_H_
