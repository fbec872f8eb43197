#include "bench_util.h"

#include <cstdio>

#include "common/rng.h"
#include "dnn/models.h"
#include "dnn/synthetic_data.h"
#include "dnn/trainer.h"

namespace nocbt::benchutil {

dnn::Sequential make_lenet_random(std::uint64_t seed) {
  Rng rng(seed);
  return dnn::build_lenet(rng);
}

dnn::Sequential make_lenet_trained(std::uint64_t seed) {
  Rng rng(seed);
  dnn::Sequential model = dnn::build_lenet(rng);

  // Real trained convnets have heavy-tailed, zero-concentrated weights —
  // that takes >1000 SGD steps with weight decay to emerge from a uniform
  // init, so the trained model is cached on disk across bench runs.
  const std::string cache =
      "/tmp/nocbt_lenet_trained_v3_" + std::to_string(seed) + ".bin";
  try {
    model.load_weights(cache);
    return model;
  } catch (const std::runtime_error&) {
    // Cache miss: train from scratch below.
  }

  dnn::SyntheticDataset data(dnn::SyntheticDataset::Config{}, seed + 1);
  dnn::Trainer::Config cfg;
  cfg.epochs = 32;
  cfg.steps_per_epoch = 50;
  cfg.batch_size = 16;
  cfg.sgd.lr = 0.03f;
  cfg.sgd.weight_decay = 6e-3f;  // drives the zero-concentration that the
                                 // ordering exploits on fixed-8 data
  dnn::Trainer trainer(model, data, cfg);
  (void)trainer.train();
  try {
    model.save_weights(cache);
  } catch (const std::runtime_error&) {
    // A read-only /tmp only costs retraining next run.
  }
  return model;
}

dnn::Sequential make_darknet_trained_like(std::uint64_t seed) {
  Rng rng(seed);
  dnn::Sequential model = dnn::build_darknet_small(rng);
  dnn::fill_weights_trained_like(model, rng, 0.04);
  return model;
}

dnn::Tensor lenet_input(std::uint64_t seed) {
  dnn::SyntheticDataset data(dnn::SyntheticDataset::Config{}, seed);
  return data.sample(1).images;
}

dnn::Tensor darknet_input(std::uint64_t seed) {
  dnn::SyntheticDataset::Config cfg;
  cfg.channels = 3;
  cfg.height = 64;
  cfg.width = 64;
  dnn::SyntheticDataset data(cfg, seed);
  return data.sample(1).images;
}

bool parse_flags(
    int argc, char** argv, const char* binary,
    std::initializer_list<std::pair<std::string_view, std::string*>> flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string* value = nullptr;
    for (const auto& [flag, target] : flags)
      if (arg == flag) value = target;
    if (value == nullptr) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", binary, argv[i]);
      return false;
    }
    if (i + 1 == argc || *argv[i + 1] == '\0') {
      std::fprintf(stderr, "%s: %s needs a value\n", binary, argv[i]);
      return false;
    }
    *value = argv[++i];
  }
  return true;
}

}  // namespace nocbt::benchutil
