// Shared pieces of the repository benchmark: options, the metric report
// and its JSON line, order statistics, digests, span self times, host
// metadata and the flat-row adapter that lets the Table-I CNN take
// serving-shaped (rows x 256) requests.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/model.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point begin);
[[nodiscard]] double micros_between(Clock::time_point begin, Clock::time_point end);

/// Command line of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for trace files.
  std::string out_dir = ".bench_build/out";
  /// Test hook: replay served answers under request seeds shifted by this
  /// much. Any non-zero value must make the correctness check fail.
  std::uint64_t replay_seed_offset = 0;
};

/// Linear-interpolated order statistic, q in [0, 1]; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// FNV-1a over raw bytes: the prediction and weight digests.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::span<const float> values) {
    add_bytes(values.data(), values.size() * sizeof(float));
  }
  void add_u64(std::uint64_t value) { add_bytes(&value, sizeof(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// Outcome counts of one measured phase. `wrong` counts answers the
/// correctness replay found to differ from the reference.
struct PhaseCounts {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
};

/// Metrics of one run, in insertion order, plus the run's accounting.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void add_phase(const PhaseCounts& phase) { phases_.push_back(phase); }
  /// A check that failed: the run then reports correct=false.
  void fail(const std::string& why);

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string result_json() const;
  /// Human-readable lines (phases, failures) for the log.
  void print_detail() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<PhaseCounts> phases_;
  std::vector<std::string> failures_;
};

/// Self and total time per span name: a span's self time is its duration
/// minus the part of it that its child spans (on the same track) cover.
struct SpanTime {
  double self_us = 0.0;
  double total_us = 0.0;
  std::uint64_t count = 0;
};
[[nodiscard]] std::map<std::string, SpanTime> span_times(
    std::vector<neuspin::obs::SpanRecord> spans);

/// {"nproc", "simd_tier", "NEUSPIN_SIMD", "compiler", "build_type"} line.
[[nodiscard]] std::string host_metadata_json();
/// Only Release builds may report numbers.
[[nodiscard]] bool release_build();

[[nodiscard]] double peak_rss_mb();

/// The same samples with every non-batch axis collapsed: (N, ...) -> (N, F).
[[nodiscard]] neuspin::nn::Dataset flat_rows(const neuspin::nn::Dataset& data);

/// Metric-name-safe form of a layer name.
[[nodiscard]] std::string sanitize(const std::string& name);

/// Reshapes flat (N x C*H*W) rows into (N x C x H x W) images and back:
/// put in front of the Table-I CNN so the fused Monte-Carlo path and the
/// serving runtime, which both move (rows x features) tensors, can drive
/// it. Stateless and deterministic.
class ImagePlane : public neuspin::nn::Layer {
 public:
  ImagePlane(std::size_t channels, std::size_t height, std::size_t width)
      : channels_(channels), height_(height), width_(width) {}

  neuspin::nn::Tensor forward(const neuspin::nn::Tensor& input, bool training) override;
  neuspin::nn::Tensor backward(const neuspin::nn::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ImagePlane"; }
  [[nodiscard]] std::unique_ptr<neuspin::nn::Layer> clone() const override {
    return std::make_unique<ImagePlane>(*this);
  }

 private:
  std::size_t channels_;
  std::size_t height_;
  std::size_t width_;
};

}  // namespace perfbench
