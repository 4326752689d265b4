// The three workloads. Each runs the same pipeline on its own model and
// traffic:
//
//   setup    data + model construction, then the serving runtime (and, for
//            the cascade, its entropy-gate calibration) — repeated, median
//   train    train::Trainer, shards = workers = 2, from the same initial
//            weights every time: every fit must end on the same weights
//   eval     core::evaluate, T=20, 2 threads: identical results every call
//   closed   serve::Runtime closed loop, window 64   -> throughput_rps
//   open     Poisson arrivals at a fixed absolute rate -> latency_p50/p90,
//            each request timed from its scheduled send time
//   replay   a sample of served answers recomputed offline, bit for bit
//
// After the first train + eval and the runtime's setup, kRounds rounds each
// run a closed segment, an open segment, more fits and more evaluations.
//
//   serve-mlp    behavioural backend, SpinDrop MLP 256-128-128-10, T=20
//   cascade-ood  cascade backend (behavioural -> event-driven tiles), T=4,
//                1 request in 8 uniform noise
//   table1-cnn   the Table-I SpinDrop CNN with 8-bit ADC / 1% read noise,
//                behavioural backend, T=20 (the CNN takes flat rows through
//                an ImagePlane adapter)
//
// Load comes from one client thread; the runtime, trainer and evaluator
// each use at most 2 compute threads.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/bayesian.h"
#include "core/census.h"
#include "core/fidelity.h"
#include "core/models.h"
#include "core/pipeline.h"
#include "data/ood.h"
#include "data/strokes.h"
#include "energy/params.h"
#include "obs/metrics.h"
#include "serve/runtime.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {

using namespace neuspin;

namespace {

constexpr std::size_t kComputeThreads = 2;
constexpr std::size_t kClosedWindow = 64;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kRounds = 8;  ///< serve/train/eval interleavings per run
constexpr std::size_t kEvalMcSamples = 20;
constexpr std::uint64_t kDigestRequests = 1024;  ///< request ids digested
constexpr std::size_t kReplayPerPhase = 96;
constexpr std::uint64_t kReplayStride = 61;  ///< every 61st answer, up to 96
constexpr auto kSettleTimeout = std::chrono::seconds(30);

struct Spec {
  std::string name;
  bool cnn = false;
  serve::Backend backend = serve::Backend::kBehavioral;
  std::size_t mc_samples = 20;
  bool ood_mix = false;
  std::size_t epochs = 6;
  /// Open-loop Poisson rate (req/s), fixed in absolute terms so a faster
  /// program meets the same offered load: about a third of the closed-loop
  /// capacity measured when the benchmark was defined (4-core x86 VM), low
  /// enough that the latency percentiles stay steady when the shared host
  /// slows down.
  double open_rate = 0.0;
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"serve-mlp", false, serve::Backend::kBehavioral, 20, false, 6, 12000.0},
      {"cascade-ood", false, serve::Backend::kCascade, 4, true, 6, 5000.0},
      {"table1-cnn", true, serve::Backend::kBehavioral, 20, false, 7, 400.0},
  };
  return all;
}

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) {
      return s;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// The training set, the held-out set and the request pool are the same in
/// every run, so every run trains the same model and serves the same mix
/// (the cascade's cost hangs on its escalated share, which a per-seed pool
/// would move). The seed picks the requests: see Traffic. The MLP's
/// held-out set is larger than the CNN's so one core::evaluate call does
/// enough work to time.
struct Data {
  nn::Dataset train;
  nn::Dataset test;
  std::vector<std::vector<float>> pool;
  std::vector<int> labels;  ///< -1 marks an out-of-distribution payload
};

Data make_data(const Spec& spec) {
  Data d;
  data::StrokeConfig sc;
  sc.samples_per_class = 120;
  const nn::Dataset train = data::standardize_per_sample(data::make_stroke_digits(sc, 11));
  sc.samples_per_class = spec.cnn ? 40 : 200;
  const nn::Dataset test = data::standardize_per_sample(data::make_stroke_digits(sc, 22));
  d.train = spec.cnn ? train : flat_rows(train);
  d.test = spec.cnn ? test : flat_rows(test);

  sc.samples_per_class = 200;
  const nn::Dataset pool_images = data::make_stroke_digits(sc, 33);
  const nn::Dataset pool = flat_rows(data::standardize_per_sample(pool_images));
  const std::size_t features = pool.inputs.numel() / pool.size();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto row = pool.inputs.data().subspan(i * features, features);
    d.pool.emplace_back(row.begin(), row.end());
    d.labels.push_back(static_cast<int>(pool.labels[i]));
  }
  if (spec.ood_mix) {
    // Every 8th payload is uniform noise, standardized like the digits.
    const std::size_t count = d.pool.size() / 8;
    const nn::Dataset noise = flat_rows(data::standardize_per_sample(data::make_ood(
        pool_images, data::OodKind::kUniformNoise, count, 99)));
    for (std::size_t i = 0; i < count; ++i) {
      const auto row = noise.inputs.data().subspan(i * features, features);
      d.pool[i * 8 + 3].assign(row.begin(), row.end());
      d.labels[i * 8 + 3] = -1;
    }
  }
  return d;
}

core::BuiltModel build_model(const Spec& spec) {
  core::ModelConfig mc;
  mc.method = core::Method::kSpinDrop;
  if (spec.cnn) {
    mc.dropout_p = 0.1;
    mc.hw.enabled = true;          // behavioural CIM non-idealities
    mc.hw.quant_levels = 256;      // 8-bit ADC class
    mc.hw.noise_fraction = 0.01f;  // 1% read noise
    return core::make_binary_cnn(mc);
  }
  mc.seed = 7;
  mc.dropout_p = 0.15;
  return core::make_binary_mlp(mc, 256, {128, 128}, 10);
}

std::uint64_t weight_digest(core::BuiltModel& model) {
  Digest d;
  for (const nn::ParamRef& p : model.net.parameters()) {
    d.add(p.value->data());
  }
  for (const nn::Tensor* t : model.net.state_tensors()) {
    d.add(t->data());
  }
  return d.value();
}

/// The model the runtime serves: the trained MLP as is, or the trained CNN
/// behind an ImagePlane adapter so it takes (rows x 256) requests.
core::BuiltModel served_model(const core::BuiltModel& trained, bool cnn) {
  if (!cnn) {
    return trained.clone();
  }
  core::BuiltModel wrapped;
  wrapped.method = trained.method;
  wrapped.arch = trained.arch;
  wrapped.net.add(std::make_unique<ImagePlane>(1, 16, 16));
  for (std::size_t i = 0; i < trained.net.size(); ++i) {
    wrapped.net.add(trained.net.layer(i).clone());
  }
  return wrapped.clone();  // clone() rebuilds the typed method-layer views
}

/// One answered request as the client saw it.
struct Answer {
  std::uint32_t row = 0;
  serve::ServedPrediction p;
};

struct Pending {
  std::future<serve::ServedPrediction> future;
  std::uint32_t row = 0;
  double lag_us = 0.0;  ///< open loop: actual send - scheduled send
};

/// The request stream of one runtime: its i-th submission carries pool row
/// mix_seed(row_seed, i) whichever phase sends it, so the same seed gives
/// the same requests however the time-bounded phases split them.
/// Open-loop gaps come from their own seeded stream.
struct Traffic {
  Traffic(const Data& d, std::uint64_t seed)
      : data(d), row_seed(nn::mix_seed(seed, 4)), gaps(nn::mix_seed(seed, 5)) {}

  [[nodiscard]] std::uint32_t next_row() {
    return static_cast<std::uint32_t>(nn::mix_seed(row_seed, next_id++) % data.pool.size());
  }

  const Data& data;
  std::uint64_t row_seed;
  std::mt19937_64 gaps;
  std::uint64_t next_id = 0;
  Digest digest;  ///< answers to requests below kDigestRequests, in id order
  std::uint64_t digested = 0;
};

/// What one phase keeps of its answers. Answers are folded in as they
/// arrive, so the client holds counters, a replay sample and per-request
/// latencies, not every ServedPrediction.
struct PhaseResult {
  PhaseCounts counts;
  std::vector<Answer> sample;  ///< answers the correctness replay recomputes
  std::uint64_t labelled = 0;  ///< in-distribution answers
  std::uint64_t hits = 0;      ///< ... whose argmax is the label
  std::uint64_t escalated = 0;
  double energy_pj = 0.0;
  /// Inputs of the reported medians: completions/s of each closed-loop
  /// window, latency percentiles of each open-loop segment.
  std::vector<double> window_rate;
  std::vector<double> window_p50;
  std::vector<double> window_p90;
  /// Open loop, per request: scheduled send -> answer, its parts, and the
  /// generator's lag behind schedule.
  std::vector<double> latency_us;
  std::vector<double> queue_us;
  std::vector<double> compute_us;
  std::vector<double> overhead_us;
  std::vector<double> lag_us;
};

/// Length of the closed-loop windows whose median rate is reported.
double window_seconds(double segment_seconds) { return std::min(0.5, segment_seconds / 3.0); }

/// Settle one future into `phase`; a future that never settles aborts.
std::optional<Answer> settle(Pending& pending, PhaseResult& phase, Traffic& traffic) {
  if (pending.future.wait_for(kSettleTimeout) != std::future_status::ready) {
    throw std::runtime_error("a request future did not settle within 30 s");
  }
  Answer a;
  a.row = pending.row;
  try {
    a.p = pending.future.get();
  } catch (const serve::OverloadError&) {
    ++phase.counts.shed;
    return std::nullopt;
  } catch (const std::exception&) {
    ++phase.counts.failed;
    return std::nullopt;
  }
  const std::uint64_t n = phase.counts.succeeded++;
  phase.energy_pj += a.p.energy_pj;
  phase.escalated += a.p.escalated ? 1 : 0;
  if (const int label = traffic.data.labels[a.row]; label >= 0) {
    ++phase.labelled;
    phase.hits += a.p.predicted_class == static_cast<std::size_t>(label) ? 1 : 0;
  }
  if (a.p.request_id < kDigestRequests) {
    traffic.digest.add_u64(a.p.request_id);
    traffic.digest.add(a.p.probs);
    ++traffic.digested;
  }
  if (n % kReplayStride == 0 && phase.sample.size() < kReplayPerPhase) {
    phase.sample.push_back(a);
  }
  return a;
}

/// Closed loop: keep kClosedWindow requests in flight for `seconds`,
/// folding the segment into `r` (a phase may run as several segments).
void closed_loop(serve::Runtime& runtime, Traffic& traffic, double seconds, PhaseResult& r) {
  const double window = window_seconds(seconds);
  std::vector<std::uint64_t> per_window(static_cast<std::size_t>(seconds / window) + 1);
  std::deque<Pending> in_flight;
  const auto begin = Clock::now();
  const auto harvest = [&] {
    if (settle(in_flight.front(), r, traffic)) {
      const auto w = static_cast<std::size_t>(seconds_since(begin) / window);
      if (w < per_window.size()) {
        ++per_window[w];
      }
    }
    in_flight.pop_front();
  };
  const auto end = begin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    const std::uint32_t row = traffic.next_row();
    in_flight.push_back({runtime.submit(traffic.data.pool[row]), row});
    ++r.counts.sent;
    if (in_flight.size() >= kClosedWindow) {
      harvest();
    }
  }
  while (!in_flight.empty()) {
    harvest();
  }
  for (std::size_t w = 0; (w + 1) * window <= seconds; ++w) {
    r.window_rate.push_back(static_cast<double>(per_window[w]) / window);
  }
}

/// Open loop: sends follow a seeded Poisson schedule at `rate` whatever the
/// completions do. The client sleeps to just before each send and spins
/// the rest, so its own wake-up lag stays small; the lag it has is
/// recorded and counted into each request's latency. Every request of the
/// segment settles before it returns, so segments never overlap.
void open_loop(serve::Runtime& runtime, Traffic& traffic, double rate, double seconds,
               PhaseResult& r) {
  std::exponential_distribution<double> gap(rate);
  std::vector<Pending> pending;
  pending.reserve(static_cast<std::size_t>(rate * seconds * 1.2) + 16);
  const auto begin = Clock::now();
  const auto end = begin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto next = begin;
  while (next < end) {
    if (next - Clock::now() > std::chrono::milliseconds(2)) {
      std::this_thread::sleep_until(next - std::chrono::milliseconds(1));
    }
    while (Clock::now() < next) {
    }
    const std::uint32_t row = traffic.next_row();
    const auto sent = Clock::now();
    pending.push_back({runtime.submit(traffic.data.pool[row]), row, micros_between(next, sent)});
    ++r.counts.sent;
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap(traffic.gaps)));
  }
  std::vector<double> segment;
  for (Pending& p : pending) {
    const std::optional<Answer> a = settle(p, r, traffic);
    if (!a) {
      continue;
    }
    const double latency = p.lag_us + a->p.total_latency_us;
    r.latency_us.push_back(latency);
    r.queue_us.push_back(a->p.queue_latency_us);
    r.compute_us.push_back(a->p.compute_latency_us);
    r.overhead_us.push_back(a->p.total_latency_us - a->p.queue_latency_us -
                            a->p.compute_latency_us);
    r.lag_us.push_back(p.lag_us);
    segment.push_back(latency);
  }
  r.window_p50.push_back(quantile(segment, 0.50));
  r.window_p90.push_back(quantile(segment, 0.90));
}

/// A served answer against a batch-of-one reference prediction, bit for bit.
bool same_probs(const std::vector<float>& served, const nn::Tensor& mean_probs) {
  return served.size() == mean_probs.numel() &&
         std::memcmp(served.data(), mean_probs.data().data(),
                     served.size() * sizeof(float)) == 0;
}

/// Recompute a sample of `phase`'s answers offline under the request
/// seeds the runtime assigned (Runtime::request_stream_seed), through the
/// public path that should have produced each: core::predict_fused_batch
/// for the behavioural backend; BehavioralBackend or TiledBackend, by the
/// answer's escalated flag, for the cascade. Mismatches count as wrong.
void replay(const Spec& spec, const serve::RuntimeConfig& config,
            const core::BuiltModel& model, const Data& data, std::uint64_t seed_offset,
            PhaseResult& phase) {
  std::vector<const Answer*> sample;
  for (const Answer& a : phase.sample) {
    sample.push_back(&a);
  }
  const std::uint64_t base = config.seed + seed_offset;
  const auto inputs_of = [&](const std::vector<const Answer*>& group) {
    const std::size_t features = data.pool.front().size();
    nn::Tensor inputs({group.size(), features});
    std::vector<std::uint64_t> seeds;
    for (std::size_t b = 0; b < group.size(); ++b) {
      std::copy(data.pool[group[b]->row].begin(), data.pool[group[b]->row].end(),
                inputs.data().begin() + static_cast<std::ptrdiff_t>(b * features));
      seeds.push_back(serve::Runtime::request_stream_seed(base, group[b]->p.request_id));
    }
    return std::make_pair(std::move(inputs), std::move(seeds));
  };
  const auto check = [&](const std::vector<const Answer*>& group,
                         const std::vector<core::Prediction>& predictions) {
    for (std::size_t b = 0; b < group.size(); ++b) {
      if (!same_probs(group[b]->p.probs, predictions[b].mean_probs)) {
        ++phase.counts.wrong;
      }
    }
  };

  if (spec.backend == serve::Backend::kBehavioral) {
    core::BuiltModel replica = model.clone();
    replica.enable_mc(true);
    for (std::size_t begin = 0; begin < sample.size(); begin += 16) {
      const std::vector<const Answer*> group(
          sample.begin() + static_cast<std::ptrdiff_t>(begin),
          sample.begin() + static_cast<std::ptrdiff_t>(std::min(begin + 16, sample.size())));
      const auto [inputs, seeds] = inputs_of(group);
      check(group, core::predict_fused_batch(replica, inputs, seeds, spec.mc_samples));
    }
    return;
  }

  core::BehavioralBackendConfig bc;
  bc.mc_samples = spec.mc_samples;
  core::BehavioralBackend behavioral(model, bc);
  core::TiledBackendConfig tc;
  tc.tile = config.tile;
  tc.tile_seed = config.tile_seed;
  tc.mc_samples = spec.mc_samples;
  tc.spindrop_p = config.spindrop_p;
  tc.measure_energy = false;
  core::BuiltModel staging = model.clone();
  core::TiledBackend tiled(staging.net, tc);
  for (const bool escalated : {false, true}) {
    std::vector<const Answer*> group;
    for (const Answer* a : sample) {
      if (a->p.escalated == escalated) {
        group.push_back(a);
      }
    }
    if (group.empty()) {
      continue;
    }
    const auto [inputs, seeds] = inputs_of(group);
    core::FidelityBackend& rung =
        escalated ? static_cast<core::FidelityBackend&>(tiled) : behavioral;
    check(group, rung.forward(inputs, seeds, nullptr).predictions);
  }
}

serve::RuntimeConfig runtime_config(const Spec& spec, std::uint64_t seed, double gate,
                                    bool trace) {
  serve::RuntimeConfig c;
  c.backend = spec.backend;
  c.workers = kComputeThreads;
  c.mc_samples = spec.mc_samples;
  c.seed = nn::mix_seed(seed, 3);
  c.batcher.max_batch = 16;
  c.batcher.max_linger = std::chrono::microseconds(100);
  c.max_queue_depth = 4096;
  if (spec.backend == serve::Backend::kCascade) {
    c.spindrop_p = 0.15;
    c.tile.eval_mode = xbar::EvalMode::kEventDriven;
    c.cascade.entropy_threshold = gate;
  }
  c.trace.enabled = trace;
  c.trace.sample_every = 8;
  return c;
}

/// Cascade gate: 90th percentile of in-distribution entropies on the
/// held-out set, answered by the cheap rung alone.
double calibrate_gate(const Spec& spec, const core::BuiltModel& model, const Data& data) {
  serve::RuntimeConfig c;
  c.workers = kComputeThreads;
  c.mc_samples = spec.mc_samples;
  serve::Runtime runtime(model, c);
  std::vector<std::future<serve::ServedPrediction>> futures;
  const std::size_t n = std::min<std::size_t>(200, data.test.size());
  const std::size_t features = data.test.inputs.numel() / data.test.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = data.test.inputs.data().subspan(i * features, features);
    futures.push_back(runtime.submit(std::vector<float>(row.begin(), row.end())));
  }
  std::vector<double> entropies;
  for (auto& f : futures) {
    entropies.push_back(f.get().entropy);
  }
  return quantile(entropies, 0.90);
}

/// The training leg: every fit starts from the same initial weights and
/// must end on the same weights.
struct TrainLeg {
  std::vector<double> examples_per_s;  ///< one entry per epoch, all fits
  std::optional<std::uint64_t> digest;
  std::size_t fits = 0;
};

core::BuiltModel train_once(const Spec& spec, const core::BuiltModel& initial,
                            const Data& data, obs::Tracer* tracer, obs::Registry* registry,
                            TrainLeg& leg, Report& report) {
  core::BuiltModel model = initial.clone();
  model.enable_mc(false);
  train::TrainerConfig tc;
  tc.epochs = spec.epochs;
  tc.batch_size = 32;
  tc.lr = 0.01f;
  tc.label_smoothing = 0.05f;
  tc.shards = kComputeThreads;
  tc.workers = kComputeThreads;
  tc.regularizer = model.make_regularizer(1e-4f, 1e-2f);
  tc.tracer = tracer;
  tc.metrics = registry;
  train::Trainer trainer(model.net, std::move(tc));
  {
    obs::ScopedSpan span(tracer, "bench:train", "bench");
    for (const nn::EpochStats& epoch : trainer.fit(data.train)) {
      leg.examples_per_s.push_back(epoch.examples_per_sec);
    }
  }
  const std::uint64_t d = weight_digest(model);
  if (leg.digest && *leg.digest != d) {
    report.fail("two trainings from the same weights ended on different weights");
  }
  leg.digest = d;
  ++leg.fits;
  return model;
}

/// The evaluation leg: every core::evaluate of the model must give the
/// same accuracy, ECE and NLL.
struct EvalLeg {
  std::optional<core::EvalResult> result;
  std::vector<double> images_per_s;
};

/// Evaluate on the held-out set at least once, until `budget_s` is spent.
void evaluate_for(const core::BuiltModel& model, const Data& data, double budget_s,
                  obs::Tracer* tracer, EvalLeg& leg, Report& report) {
  core::EvalOptions eo;
  eo.mc_samples = kEvalMcSamples;
  eo.batch_size = 100;
  eo.threads = kComputeThreads;
  const auto begin = Clock::now();
  do {
    obs::ScopedSpan span(tracer, "bench:eval", "bench");
    const auto t0 = Clock::now();
    const core::EvalResult r = core::evaluate(model, data.test, eo);
    leg.images_per_s.push_back(static_cast<double>(data.test.size()) / seconds_since(t0));
    if (leg.result && (r.accuracy != leg.result->accuracy || r.ece != leg.result->ece ||
                       r.nll != leg.result->nll)) {
      report.fail("two evaluations of one model disagree");
    }
    leg.result = r;
  } while (seconds_since(begin) < budget_s);
}

/// Tracing overhead: median closed-loop throughput of three untraced
/// runtimes against three traced ones, alternating, as a percentage.
double trace_overhead_pct(const Spec& spec, std::uint64_t seed, double gate,
                          const core::BuiltModel& model, const Data& data,
                          double seconds_each) {
  std::vector<double> off;
  std::vector<double> on;
  for (std::size_t pair = 0; pair < 3; ++pair) {
    for (const bool traced : {false, true}) {
      serve::Runtime runtime(model, runtime_config(spec, seed, gate, traced));
      Traffic traffic(data, nn::mix_seed(seed, pair));
      PhaseResult r;
      closed_loop(runtime, traffic, seconds_each, r);
      (traced ? on : off).push_back(median(r.window_rate));
    }
  }
  return 100.0 * (median(off) - median(on)) / median(off);
}

void write_trace(const obs::Tracer& tracer, const std::string& path,
                 const std::string& required) {
  tracer.write_chrome_trace(path);
  std::printf("TRACE %s %s\n", path.c_str(), required.c_str());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Spec& s : specs()) {
      out.push_back(s.name);
    }
    return out;
  }();
  return names;
}

void run_workload(const Options& options, Report& report) {
  const Spec& spec = find_spec(options.workload);
  const bool traced = options.trace;
  obs::Tracer bench_tracer(obs::TraceConfig{traced, 1, 1u << 18});
  obs::Registry train_registry;

  // ---- setup, part 1: data and the initial model.
  std::vector<double> setup_data_s;
  Data data;
  core::BuiltModel initial;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    data = make_data(spec);
    initial = build_model(spec);
    setup_data_s.push_back(seconds_since(t0));
  }

  // ---- train and evaluate the model the runtime will serve.
  obs::Tracer* tracer = traced ? &bench_tracer : nullptr;
  obs::Registry* registry = traced ? &train_registry : nullptr;
  const double train_budget_s = 0.16 * options.seconds / kRounds;
  const double eval_budget_s = 0.08 * options.seconds / kRounds;
  TrainLeg train_leg;
  EvalLeg eval_leg;
  const core::BuiltModel trained =
      train_once(spec, initial, data, tracer, registry, train_leg, report);
  evaluate_for(trained, data, eval_budget_s, tracer, eval_leg, report);
  const core::BuiltModel model = served_model(trained, spec.cnn);

  // ---- setup, part 2: gate calibration and the serving runtime.
  std::vector<double> setup_runtime_s;
  double gate = 0.0;
  std::unique_ptr<serve::Runtime> runtime;
  serve::RuntimeConfig config;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    runtime.reset();
    const auto t0 = Clock::now();
    if (spec.backend == serve::Backend::kCascade) {
      gate = calibrate_gate(spec, model, data);
    }
    config = runtime_config(spec, options.seed, gate, traced);
    runtime = std::make_unique<serve::Runtime>(model, config);
    setup_runtime_s.push_back(seconds_since(t0));
  }
  if (spec.backend == serve::Backend::kCascade) {
    std::printf("cascade gate: %.6f nats (90th percentile of held-out entropies)\n", gate);
  }

  // ---- rounds: a closed-loop and an open-loop segment on the one runtime,
  // then more fits and evaluations. Interleaving spreads every
  // measurement over the whole run, so a slow spell of the host touches
  // each metric a little instead of one metric a lot.
  Traffic traffic(data, options.seed);
  PhaseResult closed;
  closed.counts.name = "closed";
  PhaseResult open;
  open.counts.name = "open";
  double open_batches = 0.0;
  double open_batch_rows = 0.0;
  obs::Histogram& batch_size = runtime->metrics().histogram("serve.batch_size");
  for (std::size_t round = 0; round < kRounds; ++round) {
    closed_loop(*runtime, traffic, 0.3 * options.seconds / kRounds, closed);
    const obs::HistogramSnapshot before = batch_size.snapshot();
    open_loop(*runtime, traffic, spec.open_rate, 0.4 * options.seconds / kRounds, open);
    const obs::HistogramSnapshot after = batch_size.snapshot();
    open_batches += static_cast<double>(after.count - before.count);
    open_batch_rows += after.sum - before.sum;
    const auto train_begin = Clock::now();
    do {
      (void)train_once(spec, initial, data, tracer, registry, train_leg, report);
    } while (seconds_since(train_begin) < train_budget_s);
    evaluate_for(trained, data, eval_budget_s, tracer, eval_leg, report);
  }
  runtime->shutdown();
  std::printf("weight digest: %016llx after %zu trainings (examples/s by epoch: p10 %.0f, "
              "p50 %.0f, p90 %.0f)\n",
              static_cast<unsigned long long>(*train_leg.digest), train_leg.fits,
              quantile(train_leg.examples_per_s, 0.1), quantile(train_leg.examples_per_s, 0.5),
              quantile(train_leg.examples_per_s, 0.9));
  std::printf("eval: accuracy %.6f  ece %.6f  nll %.6f over %zu evaluations (images/s: p10 "
              "%.0f, p50 %.0f, p90 %.0f)\n",
              eval_leg.result->accuracy, eval_leg.result->ece, eval_leg.result->nll,
              eval_leg.images_per_s.size(), quantile(eval_leg.images_per_s, 0.1),
              quantile(eval_leg.images_per_s, 0.5), quantile(eval_leg.images_per_s, 0.9));

  // ---- correctness: replay, accounting, digest.
  for (PhaseResult* phase : {&closed, &open}) {
    replay(spec, config, model, data, options.replay_seed_offset, *phase);
    if (phase->counts.wrong > 0) {
      report.fail(std::to_string(phase->counts.wrong) + " " + phase->counts.name +
                  "-loop answers differ from the offline replay");
    }
    if (phase->counts.succeeded + phase->counts.shed + phase->counts.failed !=
        phase->counts.sent) {
      report.fail(phase->counts.name + " loop lost requests");
    }
    if (phase->counts.shed + phase->counts.failed > 0) {
      report.fail(phase->counts.name + " loop had shed or failed requests");
    }
    report.add_phase(phase->counts);
  }
  std::printf("prediction digest: %s over requests 0..%llu\n", traffic.digest.hex().c_str(),
              static_cast<unsigned long long>(traffic.digested));
  if (traffic.digested < kDigestRequests) {
    report.fail("fewer requests answered than the prediction digest covers");
  }

  const std::uint64_t answered =
      std::max<std::uint64_t>(1, closed.counts.succeeded + open.counts.succeeded);
  const double per_req = 1.0 / static_cast<double>(answered);
  if (!traced) {
    const std::uint64_t sent = closed.counts.sent + open.counts.sent;
    const std::uint64_t bad = report.failed();
    const std::uint64_t labelled = std::max<std::uint64_t>(1, closed.labelled + open.labelled);
    report.add("setup_s", median(setup_data_s) + median(setup_runtime_s), "s");
    report.add("throughput_rps", median(closed.window_rate), "1/s");
    report.add("latency_p50_us", median(open.window_p50), "us");
    report.add("latency_p90_us", median(open.window_p90), "us");
    report.add("ok_share", static_cast<double>(sent - std::min(sent, bad)) /
                               static_cast<double>(std::max<std::uint64_t>(sent, 1)),
               "share");
    report.add("energy_uj_per_req", (closed.energy_pj + open.energy_pj) * 1e-6 * per_req,
               "uJ");
    report.add("train_examples_per_s", median(train_leg.examples_per_s), "1/s");
    report.add("eval_images_per_s", median(eval_leg.images_per_s), "1/s");
    report.add("accuracy",
               spec.cnn ? static_cast<double>(eval_leg.result->accuracy)
                        : static_cast<double>(closed.hits + open.hits) /
                              static_cast<double>(labelled),
               "share");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run: the per-layer breakdown.
  report.add("serve.queue_us.p50", quantile(open.queue_us, 0.50), "us");
  report.add("serve.queue_us.p90", quantile(open.queue_us, 0.90), "us");
  report.add("serve.compute_us.p50", quantile(open.compute_us, 0.50), "us");
  report.add("serve.overhead_us.p50", quantile(open.overhead_us, 0.50), "us");
  report.add("serve.batch_size.mean", open_batch_rows / std::max(open_batches, 1.0), "count");
  report.add("serve.latency_p99_us", quantile(open.latency_us, 0.99), "us");

  const std::map<std::string, SpanTime> serve_spans = span_times(runtime->tracer().spans());
  const auto self_of = [&](const std::string& name) {
    const auto it = serve_spans.find(name);
    return it == serve_spans.end() ? 0.0 : it->second.self_us;
  };
  const auto total_of = [&](const std::string& name) {
    const auto it = serve_spans.find(name);
    return it == serve_spans.end() ? 0.0 : it->second.total_us;
  };
  report.add("serve.batch_self_us_per_req", self_of("batch") * per_req, "us");
  report.add("serve.rung_behavioral_us_per_req", self_of("rung:behavioral") * per_req,
             "us");
  const double batch_total = std::max(total_of("batch"), 1e-9);
  report.add("cascade.gate_share", self_of("cascade") / batch_total, "share");
  report.add("cascade.tiled_rung_share", total_of("rung:tiled") / batch_total, "share");
  report.add("cascade.escalated_share",
             static_cast<double>(closed.escalated + open.escalated) * per_req, "share");

  // Energy per request by component: the census-priced behavioural part
  // every answer carries, plus the cascade's measured tiled events.
  core::CensusConfig census;
  census.mc_passes = spec.mc_samples;
  const energy::EnergyLedger priced =
      core::inference_census(model.arch, model.method, census);
  const energy::EnergyParams& params = energy::default_energy_params();
  for (const energy::Component component :
       {energy::Component::kXbarCellRead, energy::Component::kWordlineActivation,
        energy::Component::kAdcConversion, energy::Component::kInputDriver,
        energy::Component::kRngDropoutCycle, energy::Component::kDigitalAdd,
        energy::Component::kDigitalMult}) {
    const std::string name = energy::component_name(component);
    const obs::Gauge* measured = runtime->metrics().find_gauge("energy.pj." + name);
    const double pj = priced.component_energy(component, params) +
                      (measured != nullptr ? measured->value() * per_req : 0.0);
    report.add("energy.pj_per_req." + sanitize(name), pj, "pJ");
  }

  const obs::Histogram& steps = train_registry.histogram("train.step_us");
  report.add("train.step_us.p50", steps.quantile(0.50), "us");
  const std::map<std::string, SpanTime> train_spans = span_times(bench_tracer.spans());
  const auto mean_span = [&](const std::string& name) {
    const auto it = train_spans.find(name);
    return it == train_spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  report.add("train.shard_fwd_us", mean_span("shard:fwd"), "us");
  report.add("train.shard_bwd_us", mean_span("shard:bwd"), "us");
  report.add("train.reduce_us", mean_span("shard:reduce"), "us");

  report.add("obs.trace_overhead_pct",
             trace_overhead_pct(spec, options.seed, gate, model, data,
                                std::max(0.1, 0.05 * options.seconds)),
             "%");
  report.add("bench.generator_lag_p90_us", quantile(open.lag_us, 0.90), "us");

  run_probes(report, bench_tracer);

  std::filesystem::create_directories(options.out_dir);
  // One pair of files per workload, overwritten by the next traced run.
  const std::string stem = options.out_dir + "/" + spec.name;
  std::string serve_required = "request queue forward policy batch rung:behavioral";
  if (spec.backend == serve::Backend::kCascade) {
    serve_required += " cascade rung:tiled tile:*";
  }
  write_trace(runtime->tracer(), stem + "-serve.trace.json", serve_required);
  write_trace(bench_tracer, stem + "-bench.trace.json",
              "bench:train bench:eval shard:fwd shard:bwd shard:reduce layer:* "
              "probe:fused_batch rung:tiled tile:*");
}

}  // namespace perfbench
