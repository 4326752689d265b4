// Module probes: fixed-shape measurements of single layers, run inside
// every traced run so each layer is tracked on every workload.
//
//  * nn.mlp.*  — the serving MLP's fused forward (16 requests x T=20 =
//                320 stacked rows) replayed through Sequential::layer(i)
//  * nn.cnn.*  — the Table-I CNN's eval forward (one 100-image batch)
//                replayed the same way
//  * core.*    — one core::predict_fused_batch call at B=16, T=20, and its
//                time outside the layers (stacking, softmax, reduction)
//  * xbar.*    — one TiledBackend batch (16 requests, T=4): per-tile self
//                time from the tile:* spans and the event engine's census
//
// Each replay is checked bit for bit against Sequential::forward under the
// same seeds, so the table times the program that serves.
#include <cstring>
#include <stdexcept>

#include "core/bayesian.h"
#include "core/fidelity.h"
#include "core/models.h"
#include "data/strokes.h"
#include "nn/model.h"
#include "workloads.h"

namespace perfbench {

using namespace neuspin;

namespace {

constexpr std::size_t kRequests = 16;
constexpr std::size_t kMcSamples = 20;
constexpr std::size_t kTiledMcSamples = 4;

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.numel() * sizeof(float)) == 0;
}

core::BuiltModel probe_mlp() {
  core::ModelConfig mc;
  mc.method = core::Method::kSpinDrop;
  mc.seed = 7;
  mc.dropout_p = 0.15;
  return core::make_binary_mlp(mc, 256, {128, 128}, 10);
}

core::BuiltModel probe_cnn() {
  core::ModelConfig mc;
  mc.method = core::Method::kSpinDrop;
  mc.dropout_p = 0.1;
  mc.hw.enabled = true;
  mc.hw.quant_levels = 256;
  mc.hw.noise_fraction = 0.01f;
  return core::make_binary_cnn(mc);
}

/// Time every layer of `model` on `input` for `reps` repetitions, after
/// `reseed` put the stochastic layers into the state Sequential::forward
/// would see. Adds one `<prefix>.<ii>-<Layer>_us` median per layer and
/// returns their sum.
template <typename Reseed>
double replay_layers(core::BuiltModel& model, const nn::Tensor& input, std::size_t reps,
                     const std::string& prefix, Reseed reseed, Report& report,
                     obs::Tracer& tracer) {
  reseed();
  const nn::Tensor reference = model.net.forward(input, /*training=*/false);
  const std::size_t layers = model.net.size();
  std::vector<std::vector<double>> per_layer(layers);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    obs::ScopedSpan replay(&tracer, "probe:" + prefix, "bench");
    reseed();
    nn::Tensor x = input;
    for (std::size_t i = 0; i < layers; ++i) {
      nn::Layer& layer = model.net.layer(i);
      obs::ScopedSpan span(&tracer, "layer:" + std::to_string(i) + ":" + layer.name(),
                           "nn");
      const auto t0 = Clock::now();
      x = layer.forward(x, /*training=*/false);
      per_layer[i].push_back(micros_between(t0, Clock::now()));
    }
    if (!same_bits(x, reference)) {
      report.fail(prefix + " layer replay differs from Sequential::forward");
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < layers; ++i) {
    char index[24];
    std::snprintf(index, sizeof(index), "%02zu", i);
    const double us = median(per_layer[i]);
    total += us;
    report.add(prefix + "." + index + "-" + sanitize(model.net.layer(i).name()) + "_us", us,
               "us");
  }
  return total;
}

}  // namespace

void run_probes(Report& report, obs::Tracer& tracer) {
  data::StrokeConfig sc;
  sc.samples_per_class = 10;
  const nn::Dataset images =
      data::standardize_per_sample(data::make_stroke_digits(sc, /*seed=*/3));
  const nn::Dataset flat = flat_rows(images);

  // Serving shape: 16 requests, each stacked T times with per-row streams
  // exactly as core::predict_fused_batch lays them out.
  const nn::Tensor requests = flat.batch(0, kRequests).first;
  std::vector<std::uint64_t> request_seeds(kRequests);
  for (std::size_t b = 0; b < kRequests; ++b) {
    request_seeds[b] = nn::mix_seed(0x70726f6265ull, b);
  }
  const std::size_t features = requests.dim(1);
  nn::Tensor stacked({kRequests * kMcSamples, features});
  std::vector<std::uint64_t> row_seeds(kRequests * kMcSamples);
  for (std::size_t b = 0; b < kRequests; ++b) {
    for (std::size_t t = 0; t < kMcSamples; ++t) {
      const std::size_t row = b * kMcSamples + t;
      std::memcpy(stacked.data().data() + row * features,
                  requests.data().data() + b * features, features * sizeof(float));
      row_seeds[row] = nn::mix_seed(request_seeds[b], t);
    }
  }

  core::BuiltModel mlp = probe_mlp();
  mlp.enable_mc(true);
  const double mlp_layers_us = replay_layers(
      mlp, stacked, 40, "nn.mlp", [&] { mlp.net.reseed_rows(row_seeds); }, report, tracer);

  // One fused Monte-Carlo batch end to end; its excess over the layer sum
  // is the glue around the forward.
  std::vector<double> fused_us;
  Digest first;
  for (std::size_t rep = 0; rep < 40; ++rep) {
    obs::ScopedSpan span(&tracer, "probe:fused_batch", "core");
    const auto t0 = Clock::now();
    const std::vector<core::Prediction> out =
        core::predict_fused_batch(mlp, requests, request_seeds, kMcSamples);
    fused_us.push_back(micros_between(t0, Clock::now()));
    Digest d;
    for (const core::Prediction& p : out) {
      d.add(p.mean_probs.data());
    }
    if (rep == 0) {
      first = d;
    } else if (d.value() != first.value()) {
      report.fail("predict_fused_batch is not deterministic across repetitions");
    }
  }
  const double fused = median(fused_us);
  report.add("core.fused_batch_us", fused, "us");
  report.add("core.fused_glue_us", fused - mlp_layers_us, "us");

  // The Table-I CNN at its evaluation shape: one 100-image batch, one
  // stochastic pass.
  core::BuiltModel cnn = probe_cnn();
  cnn.enable_mc(true);
  const nn::Tensor eval_batch = images.batch(0, 100).first;
  (void)replay_layers(
      cnn, eval_batch, 15, "nn.cnn", [&] { cnn.reseed_stochastic(0x636e6eull); }, report,
      tracer);

  // The tiled rung alone: per-tile self time from the tile:* spans the
  // program emits, and the event engine's share of rows skipped.
  core::TiledBackendConfig tc;
  tc.mc_samples = kTiledMcSamples;
  tc.spindrop_p = 0.15;
  core::BuiltModel staging = probe_mlp();
  core::TiledBackend tiled(staging.net, tc);
  tiled.set_tracer(&tracer);
  std::vector<double> batch_us;
  Digest tiled_first;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    obs::ScopedSpan span(&tracer, "probe:tiled_batch", "xbar");
    const auto t0 = Clock::now();
    const core::BackendBatch out = tiled.forward(requests, request_seeds, nullptr);
    batch_us.push_back(micros_between(t0, Clock::now()));
    Digest d;
    for (const core::Prediction& p : out.predictions) {
      d.add(p.mean_probs.data());
    }
    if (rep == 0) {
      tiled_first = d;
    } else if (d.value() != tiled_first.value()) {
      report.fail("tiled backend is not deterministic across repetitions");
    }
  }
  tiled.set_tracer(nullptr);
  for (const auto& [name, time] : span_times(tracer.spans())) {
    if (name.rfind("tile:", 0) == 0) {
      report.add("xbar.tile." + sanitize(name.substr(5)) + "_us",
                 time.self_us / static_cast<double>(time.count), "us");
    }
  }
  report.add("xbar.tiled_us_per_req", median(batch_us) / kRequests, "us");
  report.add("xbar.rows_skipped_share", tiled.delta_stats().skip_ratio(), "share");
}

}  // namespace perfbench
