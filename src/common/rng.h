// Deterministic random-number generation for the whole simulator.
//
// Every stochastic component (dataset synthesis, device sampling, SGD
// shuffling, policy sampling, exploration) takes an explicit Rng so that
// experiments are reproducible from a single seed and components can be
// given independent streams (Rng::split).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace chiron {

/// Seeded pseudo-random generator with the distributions the simulator needs.
/// Wraps std::mt19937_64; copyable (copies duplicate the stream state).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Derives an independent child stream; successive calls give distinct
  /// streams. Used to give each subsystem its own generator.
  Rng split();

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (mean 0, stddev 1) scaled to N(mean, stddev^2).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Uniform integer in [lo, hi] inclusive.
  int randint(int lo, int hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// A random permutation of {0, 1, ..., n-1}.
  std::vector<int> permutation(int n);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// A UniformRandomBitGenerator whose output sequence is exactly
/// std::mt19937_64(seed)'s, built for streams that draw only a few words.
///
/// The standard fixes mt19937_64's algorithm, so the sequence can be
/// computed without the engine. Output j < 156 of the first twist reads
/// only the seeded words x[j], x[j+1] and x[j+156], and each seeded word
/// depends only on the one before it. The constructor therefore walks the
/// seeding recurrence x[i] = f·(x[i-1] ^ x[i-1]>>62) + i to index
/// 156 + kShort - 1 and keeps 2·kShort + 1 words; each draw then twists
/// and tempers one word. That is about a quarter of the work of a full
/// seed (312 words) plus a full twist (312 more). Draw kShort and later
/// come from a real std::mt19937_64(seed) advanced past the short window,
/// so long streams (e.g. uniform_int rejection) stay exact too.
class CellEngine {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Draws served from the precomputed window before the fallback.
  static constexpr int kShort = 8;

  explicit CellEngine(std::uint64_t seed);

  result_type operator()();

 private:
  std::uint64_t seed_;
  int drawn_ = 0;
  std::uint64_t lo_[kShort + 1];  // seeded x[0 .. kShort]
  std::uint64_t hi_[kShort];      // seeded x[156 .. 156 + kShort - 1]
  std::optional<std::mt19937_64> full_;  // engaged past the short window
};

/// Rng's distributions over a CellEngine: the generator for one
/// counter-based stream cell (see stream_seed). For the same seed,
/// uniform, randint and bernoulli return exactly what Rng returns — the
/// libstdc++ distributions see only the engine's output sequence — at a
/// fraction of the construction cost.
class CellRng {
 public:
  explicit CellRng(std::uint64_t seed) : engine_(seed) {}

  double uniform(double lo = 0.0, double hi = 1.0);
  int randint(int lo, int hi);
  bool bernoulli(double p);

 private:
  CellEngine engine_;
};

/// splitmix64 finalizer — decorrelates a counter into a full 64-bit value.
/// Shared by every counter-based stream derivation in the simulator.
std::uint64_t splitmix64(std::uint64_t z);

/// Counter-based stream seed for a (seed, round, node) cell. Feeding the
/// result to `CellRng` (or `Rng`) gives that cell its own generator whose
/// draws are independent of call order, thread count and every other RNG
/// in the process. FaultPlan and AdversaryPlan both derive their
/// schedules from this one function so their determinism semantics
/// cannot drift.
std::uint64_t stream_seed(std::uint64_t seed, int round, int node);

}  // namespace chiron
