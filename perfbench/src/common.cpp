#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "nn/simd.h"

namespace perfbench {

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double micros_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

std::uint64_t Report::attempted() const {
  std::uint64_t total = 0;
  for (const PhaseCounts& p : phases_) {
    total += p.sent;
  }
  return std::max<std::uint64_t>(total, 1);
}

std::uint64_t Report::failed() const {
  std::uint64_t total = 0;
  for (const PhaseCounts& p : phases_) {
    total += p.shed + p.failed + p.wrong;
  }
  return total;
}

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted());
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out += (i == 0 ? "" : ", ");
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void Report::print_detail() const {
  for (const PhaseCounts& p : phases_) {
    std::printf(
        "phase %-10s sent %8llu  succeeded %8llu  shed %6llu  failed %6llu  "
        "wrong %6llu\n",
        p.name.c_str(), static_cast<unsigned long long>(p.sent),
        static_cast<unsigned long long>(p.succeeded),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.failed),
        static_cast<unsigned long long>(p.wrong));
  }
  for (const Metric& m : metrics_) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& why : failures_) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
}

std::map<std::string, SpanTime> span_times(std::vector<neuspin::obs::SpanRecord> spans) {
  // Per track: begin ascending, the longer span first at equal begins, so
  // a stack of open spans always holds the innermost enclosing parent.
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.track != b.track) {
      return a.track < b.track;
    }
    if (a.begin_us != b.begin_us) {
      return a.begin_us < b.begin_us;
    }
    return a.end_us > b.end_us;
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    self[i] = span.end_us - span.begin_us;
    while (!open.empty() && (spans[open.back()].track != span.track ||
                             spans[open.back()].end_us <= span.begin_us)) {
      open.pop_back();
    }
    if (!open.empty()) {
      self[open.back()] -= span.end_us - span.begin_us;
    }
    open.push_back(i);
  }
  std::map<std::string, SpanTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTime& t = out[spans[i].name];
    t.self_us += self[i];
    t.total_us += spans[i].end_us - spans[i].begin_us;
    ++t.count;
  }
  return out;
}

bool release_build() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

std::string host_metadata_json() {
  const char* simd_env = std::getenv("NEUSPIN_SIMD");
  std::string out = "{\"host\": {\"nproc\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd_tier\": \"";
  out += neuspin::nn::simd::tier_name(neuspin::nn::simd::active_tier());
  out += "\", \"NEUSPIN_SIMD\": \"";
  out += simd_env != nullptr ? simd_env : "";
  out += "\", \"compiler\": \"" PERFBENCH_COMPILER "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\"}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

neuspin::nn::Dataset flat_rows(const neuspin::nn::Dataset& data) {
  return neuspin::nn::Dataset{
      data.inputs.reshaped({data.size(), data.inputs.numel() / data.size()}), data.labels};
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    out += keep ? c : '_';
  }
  return out;
}

neuspin::nn::Tensor ImagePlane::forward(const neuspin::nn::Tensor& input,
                                        bool /*training*/) {
  const std::size_t plane = channels_ * height_ * width_;
  if (input.rank() != 2 || input.dim(1) != plane) {
    throw std::invalid_argument("ImagePlane: expected (rows x " + std::to_string(plane) +
                                ") input");
  }
  return input.reshaped({input.dim(0), channels_, height_, width_});
}

neuspin::nn::Tensor ImagePlane::backward(const neuspin::nn::Tensor& grad_output) {
  return grad_output.reshaped({grad_output.dim(0), channels_ * height_ * width_});
}

}  // namespace perfbench
