// The benchmark's own arithmetic: percentiles with their sample counts,
// closed-loop request accounting, and span self time. Header-only so the
// driver and metrics_test.cc share one definition.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// \brief One percentile of a sample set, with the counts that say how far
/// it can be trusted.
struct Percentile {
  double value = 0;
  size_t samples = 0;  ///< Size of the sample set.
  size_t beyond = 0;   ///< Samples strictly after the percentile's rank.
};

/// Nearest-rank percentile (`q` in (0, 1]): the smallest sample with at
/// least q·n samples at or below it. Infinite samples (failed requests)
/// sort last, so they raise high percentiles instead of vanishing. An empty
/// set yields NaN.
inline Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) {
    p.value = std::numeric_limits<double>::quiet_NaN();
    return p;
  }
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.5).value;
}

/// Nearest-rank first and third quartiles. A run's figure is read from the
/// quieter quarter of its stretches (chunks of requests, time windows,
/// batches): interference from the host only ever slows a stretch, so the
/// first quartile of their latencies, or the third quartile of their rates,
/// moves only when more than three quarters of the run are disturbed, while
/// a change in the program moves every stretch.
inline double LowerQuartile(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.25).value;
}
inline double UpperQuartile(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.75).value;
}

/// \brief A percentile taken per chunk of consecutive samples, then the
/// lower quartile over the chunks (see LowerQuartile).
struct ChunkedPercentile {
  double value = 0;
  size_t samples = 0;  ///< All samples.
  size_t chunks = 0;
  size_t beyond = 0;  ///< Samples beyond the percentile in the smallest chunk.
};

/// Splits `samples`, in the order given, into consecutive chunks of exactly
/// `chunk` samples, the last of which also takes the remainder (one chunk
/// when there are fewer than `chunk`), and returns the lower quartile over
/// the chunks of each chunk's nearest-rank `q` percentile. When the samples
/// come in rounds of a fixed script, a chunk of whole rounds gives every
/// chunk the same mix of requests.
inline ChunkedPercentile ChunkedNearestRank(const std::vector<double>& samples,
                                            double q, size_t chunk) {
  ChunkedPercentile out;
  chunk = std::max<size_t>(1, chunk);
  out.samples = samples.size();
  out.chunks = std::max<size_t>(1, samples.size() / chunk);
  out.beyond = samples.size();
  std::vector<double> values;
  for (size_t c = 0; c < out.chunks; ++c) {
    auto first = samples.begin() + c * chunk;
    auto last = c + 1 == out.chunks ? samples.end() : first + chunk;
    Percentile p = NearestRank(std::vector<double>(first, last), q);
    values.push_back(p.value);
    out.beyond = std::min(out.beyond, p.beyond);
  }
  out.value = LowerQuartile(std::move(values));
  return out;
}

/// \brief Accounting of one closed loop. Every request sent counts as
/// attempted; a non-2xx status, a timeout or a wrong result counts as
/// failed. Latencies of requests past warm-up feed the percentiles, a
/// failed one as +inf so that failures push latency up rather than hide.
class LoopTally {
 public:
  /// Consecutive samples per percentile chunk: enough for 10 beyond p95.
  static constexpr size_t kChunk = 200;

  /// `done_s` is when the request completed, in seconds of measured time.
  void Record(bool ok, double latency_ms, bool warmup, double done_s = 0) {
    ++attempted_;
    if (!ok) ++failed_;
    if (warmup) return;
    if (ok) ++completed_;
    samples_.push_back(
        {done_s, ok ? latency_ms : std::numeric_limits<double>::infinity()});
  }

  /// Folds another client's tally into this one.
  void Merge(const LoopTally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    completed_ += other.completed_;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  /// Requests past warm-up that succeeded and passed their check.
  size_t completed() const { return completed_; }

  double ErrorRatio() const {
    return attempted_ == 0 ? 0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  /// Latencies past warm-up in completion order (failed ones as +inf).
  std::vector<double> Latencies() const {
    std::vector<std::pair<double, double>> by_time = samples_;
    std::stable_sort(
        by_time.begin(), by_time.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<double> out;
    for (const auto& [done, latency] : by_time) out.push_back(latency);
    return out;
  }

  /// Latency percentile over chunks of `chunk` consecutive requests.
  ChunkedPercentile LatencyPercentile(double q, size_t chunk = kChunk) const {
    return ChunkedNearestRank(Latencies(), q, chunk);
  }

  /// Completed requests per second of measured (post-warm-up) time: the
  /// upper quartile (see UpperQuartile) over the whole `window_s` windows of
  /// each window's completion rate, (completions - 1) / (last - first
  /// completion). Runs without a window of two completions use the overall
  /// rate.
  double OpsPerSecond(double measured_s, double window_s = 1.0) const {
    if (measured_s <= 0) return 0;
    const size_t windows = static_cast<size_t>(measured_s / window_s);
    std::vector<std::vector<double>> by_window(windows);
    for (const auto& [t, latency] : samples_) {
      if (std::isinf(latency)) continue;
      size_t w = static_cast<size_t>(std::max(0.0, t) / window_s);
      if (w < windows) by_window[w].push_back(t);
    }
    std::vector<double> rates;
    for (std::vector<double>& times : by_window) {
      if (times.size() < 2) continue;
      auto [first, last] = std::minmax_element(times.begin(), times.end());
      if (*last > *first) {
        rates.push_back(static_cast<double>(times.size() - 1) /
                        (*last - *first));
      }
    }
    if (rates.empty()) return static_cast<double>(completed_) / measured_s;
    return UpperQuartile(std::move(rates));
  }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t completed_ = 0;
  std::vector<std::pair<double, double>> samples_;  ///< (done_s, latency_ms)
};

/// \brief One timed interval of the traced run. Spans of one request share
/// `request`; `parent` is 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;  ///< "<layer>.<call>", e.g. "engine.execute".
  double start_ms = 0;
  double end_ms = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline double CoveredLength(std::vector<std::pair<double, double>> intervals,
                            double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

/// Self time of every span, by span id: its duration minus the part of its
/// interval that its children cover. Overlapping children (parallel work)
/// are counted once, so self time is never negative.
inline std::map<uint64_t, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
  }
  std::map<uint64_t, double> self;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    double covered =
        it == children.end()
            ? 0
            : CoveredLength(it->second, s.start_ms, s.end_ms);
    self[s.id] = s.duration_ms() - covered;
  }
  return self;
}

/// The layer of a span name: the text before the first '.'.
inline std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
