#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <unordered_set>

namespace perfbench {

Tail TailPercentile(std::vector<double> samples, double p) {
  Tail t;
  t.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const int64_t n = t.count;
  // Nearest rank: the smallest index whose rank share reaches p.
  int64_t idx =
      static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n))) - 1;
  idx = std::clamp<int64_t>(idx, 0, n - 1);
  if (n <= kTailBeyond) {
    idx = (n - 1) / 2;
  } else if (n - 1 - idx < kTailBeyond) {
    idx = n - 1 - kTailBeyond;
  }
  t.value = samples[static_cast<size_t>(idx)];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

std::vector<Tail> ChunkTails(const std::vector<double>& samples, double p,
                             size_t chunk) {
  chunk = std::max<size_t>(1, chunk);
  const size_t chunks = std::max<size_t>(1, samples.size() / chunk);
  std::vector<Tail> out;
  for (size_t c = 0; c < chunks; ++c) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(c * chunk);
    const auto last = c + 1 == chunks
                          ? samples.end()
                          : first + static_cast<std::ptrdiff_t>(chunk);
    out.push_back(TailPercentile(std::vector<double>(first, last), p));
  }
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  return samples[mid];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double LadderRate(double base, double step, int rung) {
  return base * std::pow(step, rung);
}

void Ladder::Report(bool pass) {
  const int rung = next();
  if (pass) {
    lo_ = rung;
    strikes_ = 0;
  } else if (++strikes_ == 2) {
    hi_ = rung;
    strikes_ = 0;
  }
}

bool BacklogGrows(const std::vector<int64_t>& depth, double slack) {
  const size_t n = depth.size();
  if (n < 8) return false;
  const size_t q = n / 4;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < q; ++i) {
    first += static_cast<double>(depth[i]);
    last += static_cast<double>(depth[n - q + i]);
  }
  return (last - first) / static_cast<double>(q) > slack;
}

ZipfSampler::ZipfSampler(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
  double acc = 0.0;
  for (int64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[static_cast<size_t>(k)] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

int64_t ZipfSampler::Next(cgnp::Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(it - cdf_.begin(),
                           static_cast<int64_t>(cdf_.size()) - 1);
}

std::vector<double> PoissonArrivals(double rate, double duration,
                                    cgnp::Rng* rng) {
  std::vector<double> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng->NextDouble()) / rate;
    if (t >= duration) break;
    out.push_back(t);
  }
  return out;
}

namespace {

uint64_t EdgeKey(cgnp::NodeId u, cgnp::NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
}

}  // namespace

std::vector<cgnp::GraphEdit> MakeEditStream(const cgnp::Graph& g,
                                            int64_t count, double insert_share,
                                            uint64_t seed) {
  cgnp::Rng rng(seed);
  const int64_t n = g.num_nodes();
  std::unordered_set<uint64_t> removed;  // base edges deleted so far
  std::unordered_set<uint64_t> added;    // stream inserts still present
  std::vector<uint64_t> added_list;      // same set, for uniform picks
  auto present = [&](cgnp::NodeId u, cgnp::NodeId v) {
    const uint64_t k = EdgeKey(u, v);
    if (added.count(k)) return true;
    return g.HasEdge(u, v) && !removed.count(k);
  };
  std::vector<cgnp::GraphEdit> out;
  out.reserve(static_cast<size_t>(count));
  while (static_cast<int64_t>(out.size()) < count) {
    // Edit i is an insert when floor((i + 1) * share) passes floor(i * share):
    // every run of edits holds the share exactly, not a binomial draw of it,
    // so the latency median never slides between the insert and delete modes.
    const double i = static_cast<double>(out.size());
    const bool want_insert = std::floor((i + 1) * insert_share) >
                             std::floor(i * insert_share);
    if (want_insert) {
      const cgnp::NodeId u = rng.NextInt(n);
      const auto nu = g.Neighbors(u);
      if (nu.empty()) continue;
      const cgnp::NodeId v = PickOne(g.Neighbors(PickOne(nu, &rng)), &rng);
      if (v == u || present(u, v)) continue;
      const uint64_t k = EdgeKey(u, v);
      if (removed.erase(k) == 0) {
        added.insert(k);
        added_list.push_back(k);
      }
      out.push_back({true, u, v});
      continue;
    }
    if (!added_list.empty() && rng.Bernoulli(0.5)) {
      const size_t i = static_cast<size_t>(
          rng.NextInt(static_cast<int64_t>(added_list.size())));
      const uint64_t k = added_list[i];
      added_list[i] = added_list.back();
      added_list.pop_back();
      added.erase(k);
      out.push_back({false, static_cast<cgnp::NodeId>(k >> 32),
                     static_cast<cgnp::NodeId>(k & 0xffffffffu)});
      continue;
    }
    const cgnp::NodeId u = rng.NextInt(n);
    const auto nu = g.Neighbors(u);
    if (nu.empty()) continue;
    const cgnp::NodeId v = PickOne(nu, &rng);
    if (!present(u, v)) continue;
    removed.insert(EdgeKey(u, v));
    out.push_back({false, u, v});
  }
  return out;
}

}  // namespace perfbench
