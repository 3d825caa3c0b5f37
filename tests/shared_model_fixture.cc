// Trains the shared test pipeline once — SharedDataset()'s gold standard
// with Rng(41), the pipeline every trained-pipeline suite uses — and saves
// it as a model file. ctest runs it as the shared_model fixture's setup
// step; the suites load the file through LoadOrTrainSharedModel instead
// of each training the same pipeline again.
//
// Usage: shared_model_fixture OUT_MODEL_FILE

#include <cstdio>
#include <string>

#include "pipeline/model_io.h"
#include "pipeline/pipeline.h"
#include "pipeline/training.h"
#include "test_dataset.h"
#include "util/random.h"

int main(int argc, char** argv) {
  using namespace ltee;
  if (argc != 2) {
    std::fprintf(stderr, "usage: shared_model_fixture OUT_MODEL_FILE\n");
    return 2;
  }
  const auto& ds = testing::SharedDataset();
  pipeline::LteePipeline pipe(ds.kb, pipeline::PipelineOptions());
  util::Rng rng(41);
  pipeline::TrainPipelineOnGold(&pipe, ds.gs_corpus, ds.gold, rng);
  std::string error;
  if (!pipeline::SavePipelineModel(pipe, testing::GoldClasses(ds), argv[1],
                                   &error)) {
    std::fprintf(stderr, "shared_model_fixture: %s\n", error.c_str());
    return 1;
  }
  return 0;
}
