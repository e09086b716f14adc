// Tests of the benchmark's own arithmetic (metrics.h). A plain executable:
// run.py runs it after every build and stops on a failure.
//
//   .bench_build/perfbench/perfbench_metrics_test

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "metrics.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "metrics_test.cc:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void PercentilesCarryTheirCounts() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  perfbench::Percentile p50 = perfbench::NearestRank(hundred, 0.50);
  perfbench::Percentile p95 = perfbench::NearestRank(hundred, 0.95);
  CHECK(Near(p50.value, 50) && p50.samples == 100 && p50.beyond == 50);
  CHECK(Near(p95.value, 95) && p95.samples == 100 && p95.beyond == 5);

  // Twenty samples leave a single sample beyond p95: too few to trust.
  std::vector<double> twenty(hundred.end() - 20, hundred.end());
  perfbench::Percentile small = perfbench::NearestRank(twenty, 0.95);
  CHECK(Near(small.value, 19) && small.samples == 20 && small.beyond == 1);

  perfbench::Percentile one = perfbench::NearestRank({7.5}, 0.95);
  CHECK(Near(one.value, 7.5) && one.samples == 1 && one.beyond == 0);

  perfbench::Percentile none = perfbench::NearestRank({}, 0.5);
  CHECK(std::isnan(none.value) && none.samples == 0);

  CHECK(Near(perfbench::Median({3, 1, 2}), 2));
  CHECK(Near(perfbench::Median({4, 1, 3, 2}), 2));  // lower middle
  CHECK(Near(perfbench::LowerQuartile({4, 1, 3, 2}), 1));
  CHECK(Near(perfbench::UpperQuartile({4, 1, 3, 2}), 3));
}

void ClosedLoopCountsEveryAttempt() {
  perfbench::LoopTally tally;
  tally.Record(true, 100.0, /*warmup=*/true);
  tally.Record(false, 1.0, /*warmup=*/true);
  for (int i = 1; i <= 8; ++i) {
    tally.Record(true, i, /*warmup=*/false, /*done_s=*/i / 4.0);
  }
  tally.Record(false, 0.5, /*warmup=*/false);  // fast but wrong
  tally.Record(false, 0.5, /*warmup=*/false);

  CHECK(tally.attempted() == 12);
  CHECK(tally.failed() == 3);
  CHECK(tally.completed() == 8);
  CHECK(tally.Latencies().size() == 10);  // warm-up dropped
  CHECK(Near(tally.ErrorRatio(), 3.0 / 12.0));
  // Completions every 0.25 s: 4 per second in every whole window.
  CHECK(Near(tally.OpsPerSecond(2.0), 4.0));
  CHECK(Near(tally.OpsPerSecond(2.0, 0.5), 4.0));  // first window has one
  CHECK(Near(tally.OpsPerSecond(0.5, 1.0), 16.0));  // no whole window
  CHECK(Near(tally.OpsPerSecond(0.0), 0.0));
  // Failed requests sort last: they raise p95 instead of lowering p50.
  CHECK(Near(tally.LatencyPercentile(0.5).value, 5));
  CHECK(std::isinf(tally.LatencyPercentile(0.95).value));

  perfbench::LoopTally other;
  other.Record(true, 9, /*warmup=*/false, 0.5);
  tally.Merge(other);
  CHECK(tally.attempted() == 13 && tally.failed() == 3);
  CHECK(tally.completed() == 9 && tally.Latencies().size() == 11);

  // One window slowed to 2 per second by interference leaves the upper
  // quartile of five windows at 10 per second.
  perfbench::LoopTally bursty;
  for (int w = 0; w < 5; ++w) {
    const int n = w == 2 ? 2 : 10;
    for (int k = 0; k < n; ++k) {
      bursty.Record(true, 1, /*warmup=*/false, /*done_s=*/w + k / (n * 1.0));
    }
  }
  CHECK(Near(bursty.OpsPerSecond(5.0), 10.0));

  // Requests 600..799 of 1000 were slowed tenfold: the overall p95 would
  // report the slowdown, the lower quartile over five chunks of 200 does not.
  perfbench::LoopTally slowed;
  for (int i = 0; i < 1000; ++i) {
    double ms = (i % 100) / 10.0 + (i >= 600 && i < 800 ? 100 : 1);
    slowed.Record(true, ms, /*warmup=*/false, /*done_s=*/i * 0.01);
  }
  perfbench::ChunkedPercentile p95 = slowed.LatencyPercentile(0.95);
  CHECK(p95.chunks == 5 && p95.samples == 1000 && p95.beyond == 10);
  CHECK(Near(p95.value, 10.4));
  CHECK(perfbench::NearestRank(slowed.Latencies(), 0.95).value > 100);
  // Three slowed chunks of five still leave it; four move it.
  for (int slow_chunks : {3, 4}) {
    perfbench::LoopTally mostly;
    for (int i = 0; i < 1000; ++i) {
      double ms = (i % 100) / 10.0 + (i < 200 * slow_chunks ? 100 : 1);
      mostly.Record(true, ms, /*warmup=*/false, /*done_s=*/i * 0.01);
    }
    CHECK(Near(mostly.LatencyPercentile(0.95).value,
               slow_chunks == 3 ? 10.4 : 109.4));
  }

  // Chunks hold exactly `chunk` samples; the last one takes the remainder.
  // Requests repeating a script of 4 (latencies 1, 1, 1, 9) in chunks of
  // whole rounds all read the same p95, so their quartile does too.
  std::vector<double> rounds;
  for (int i = 0; i < 40; ++i) rounds.push_back(i % 4 == 3 ? 9 : 1);
  perfbench::ChunkedPercentile aligned =
      perfbench::ChunkedNearestRank(rounds, 0.95, 12);
  CHECK(aligned.chunks == 3 && aligned.samples == 40);
  CHECK(Near(aligned.value, 9) && aligned.beyond == 0);
  CHECK(perfbench::ChunkedNearestRank(rounds, 0.95, 100).chunks == 1);
  // Chunks of 6 split rounds: their p75 alternates between 1 and 9.
  perfbench::ChunkedPercentile split =
      perfbench::ChunkedNearestRank(rounds, 0.75, 6);
  CHECK(split.chunks == 6 && Near(split.value, 1));

  perfbench::LoopTally empty;
  CHECK(Near(empty.ErrorRatio(), 0));
}

void SelfTimeCountsOverlapOnce() {
  using perfbench::Span;
  std::vector<Span> spans = {
      {1, 0, 1, "core.hunt", 0, 10},
      {2, 1, 1, "engine.execute", 1, 4},
      {3, 1, 1, "engine.execute", 3, 6},  // overlaps span 2 on [3, 4]
      {4, 1, 1, "nlp.extract", 9, 12},    // runs past its parent's end
      {5, 2, 1, "engine.scan", 1.5, 2},   // grandchild: only span 2 loses it
  };
  std::map<uint64_t, double> self = perfbench::SelfTimes(spans);
  CHECK(Near(self[1], 10 - 5 - 1));  // children cover [1, 6] and [9, 10]
  CHECK(Near(self[2], 3 - 0.5));
  CHECK(Near(self[3], 3));
  CHECK(Near(self[4], 3));
  CHECK(Near(self[5], 0.5));

  // Children nested inside one another are still counted once.
  std::vector<Span> nested = {
      {1, 0, 1, "core.query", 0, 4},
      {2, 1, 1, "tbql.parse", 0, 4},
      {3, 1, 1, "tbql.analyze", 1, 2},
  };
  CHECK(Near(perfbench::SelfTimes(nested)[1], 0));

  CHECK(perfbench::LayerOf("engine.execute") == "engine");
  CHECK(perfbench::LayerOf("server") == "server");
}

}  // namespace

int main() {
  PercentilesCarryTheirCounts();
  ClosedLoopCountsEveryAttempt();
  SelfTimeCountsOverlapOnce();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "metrics_test: all checks passed\n");
  return 0;
}
