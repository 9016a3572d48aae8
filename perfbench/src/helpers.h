// Measurement helpers of the repository benchmark: the percentile rule,
// the geometric rate ladder and its backlog check, and the seeded input
// generators (Zipf query popularity, Poisson arrivals, the edit stream).
// Everything here is a pure function of its arguments so the helper tests
// (tests/helpers_test.cc) can pin it down.
#ifndef PERFBENCH_HELPERS_H_
#define PERFBENCH_HELPERS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/delta.h"
#include "graph/graph.h"
#include "tensor/rng.h"

namespace perfbench {

// --- Percentile rule ---------------------------------------------------

// A tail summary of one sample set. `percentile` is the percentile actually
// reported: the requested one when at least kTailBeyond samples lie beyond
// it, otherwise the highest percentile that still has kTailBeyond samples
// beyond it (the median when the set has no more than kTailBeyond samples).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  int64_t count = 0;
};

inline constexpr int64_t kTailBeyond = 10;

// Nearest-rank percentile `p` (0 < p < 100) of `samples`, clamped by the
// rule above. Empty input gives {0, 0, 0}.
Tail TailPercentile(std::vector<double> samples, double p);

// Nearest-rank median (p50, never clamped); 0 for an empty set.
double Median(std::vector<double> samples);

// Arithmetic mean; 0 for an empty set.
double Mean(const std::vector<double>& samples);

// TailPercentile(p) of each run of `chunk` consecutive samples (in arrival
// order); a trailing partial run joins the last full one, and fewer than
// `chunk` samples form one run. A tail reported as the median of these
// moves with the system's tail, not with one stall of the host.
std::vector<Tail> ChunkTails(const std::vector<double>& samples, double p,
                             size_t chunk);

// --- Rate ladder -------------------------------------------------------

// Rung k of the geometric ladder: base * step^k. The ladder's steps are
// fixed by the workload, never by measurements.
double LadderRate(double base, double step, int rung);

// Bisection for the highest passing rung of a ladder of `rungs` rungs,
// assuming passing is monotone (every rung below a passing rung passes).
// One failing probe can be a stall of the host rather than of the system,
// so a rung counts as failed only after two consecutive failing probes of
// it; a pass counts at once. At most 2 * ceil(log2(rungs + 1)) probes.
//
//   Ladder ladder(64);
//   while (!ladder.done()) ladder.Report(Probe(ladder.next()));
//   int best = ladder.best();  // -1 when rung 0 fails
class Ladder {
 public:
  explicit Ladder(int rungs) : hi_(rungs) {}
  bool done() const { return hi_ - lo_ <= 1; }
  int next() const { return lo_ + (hi_ - lo_) / 2; }
  void Report(bool pass);
  int best() const { return lo_; }

 private:
  int lo_ = -1;  // highest rung known to pass
  int hi_;       // lowest rung known to fail
  int strikes_ = 0;
};

// Backlog check of one open-loop window: `depth` holds the FIFO depth seen
// at each issue, in issue order. The backlog grows when the mean depth over
// the last quarter of issues exceeds the mean over the first quarter by
// more than `slack` requests. Fewer than 8 samples never count as growth.
bool BacklogGrows(const std::vector<int64_t>& depth, double slack);

// --- Seeded generators -------------------------------------------------

// A uniformly drawn element of the non-empty `items`.
template <typename Seq>
auto PickOne(const Seq& items, cgnp::Rng* rng) {
  return items[static_cast<size_t>(
      rng->NextInt(static_cast<int64_t>(items.size())))];
}

// Zipf(s) over ranks [0, n): P(k) proportional to 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);
  int64_t Next(cgnp::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// Poisson arrival times (seconds from 0) at `rate` per second over
// [0, duration).
std::vector<double> PoissonArrivals(double rate, double duration,
                                    cgnp::Rng* rng);

// A stream of `count` local edge edits against `g`, valid in order:
//   * inserts join a node to a 2-hop neighbour it is not adjacent to (in
//     the edited graph), never a self loop;
//   * deletes only name edges present in the edited graph at that point
//     (an earlier insert of the stream or a surviving base edge),
// so applying the stream in order never fails. Kinds are interleaved
// evenly: every run of edits holds the share `insert_share` of inserts to
// within one edit (3/4 gives delete, insert, insert, insert, repeating).
std::vector<cgnp::GraphEdit> MakeEditStream(const cgnp::Graph& g,
                                            int64_t count, double insert_share,
                                            uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HELPERS_H_
