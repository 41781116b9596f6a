#include "common/rng.h"

#include <algorithm>
#include <numeric>

namespace chiron {

Rng Rng::split() {
  // Draw two words from the parent to seed the child; keeps streams
  // decorrelated for practical purposes without a full split construction.
  std::uint64_t a = engine_();
  std::uint64_t b = engine_();
  return Rng(a ^ (b << 1) ^ 0xD1B54A32D192ED03ull);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

int Rng::randint(int lo, int hi) {
  std::uniform_int_distribution<int> d(lo, hi);
  return d(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution d(p);
  return d(engine_);
}

std::vector<int> Rng::permutation(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  shuffle(p);
  return p;
}

namespace {

// std::mt19937_64's parameters ([rand.predef]); the names follow the
// standard's mersenne_twister_engine template arguments.
constexpr int kMtN = 312;
constexpr int kMtM = 156;
constexpr std::uint64_t kMtA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kMtF = 6364136223846793005ull;
constexpr std::uint64_t kMtLowerMask = (1ull << 31) - 1;  // r = 31
constexpr std::uint64_t kMtUpperMask = ~kMtLowerMask;

static_assert(CellEngine::kShort <= kMtN - kMtM,
              "the short window must stay inside the first twist's "
              "untouched half");

}  // namespace

CellEngine::CellEngine(std::uint64_t seed) : seed_(seed) {
  std::uint64_t x = seed;
  lo_[0] = x;
  for (int i = 1; i < kMtM + kShort; ++i) {
    x = kMtF * (x ^ (x >> 62)) + static_cast<std::uint64_t>(i);
    if (i <= kShort) lo_[i] = x;
    if (i >= kMtM) hi_[i - kMtM] = x;
  }
}

CellEngine::result_type CellEngine::operator()() {
  if (drawn_ < kShort) {
    const int j = drawn_++;
    // First-twist word j, then the standard tempering.
    const std::uint64_t y =
        (lo_[j] & kMtUpperMask) | (lo_[j + 1] & kMtLowerMask);
    std::uint64_t z = hi_[j] ^ (y >> 1) ^ ((y & 1) ? kMtA : 0);
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }
  if (!full_) {
    full_.emplace(seed_);
    full_->discard(kShort);
  }
  return (*full_)();
}

double CellRng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

int CellRng::randint(int lo, int hi) {
  std::uniform_int_distribution<int> d(lo, hi);
  return d(engine_);
}

bool CellRng::bernoulli(double p) {
  std::bernoulli_distribution d(p);
  return d(engine_);
}

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, int round, int node) {
  // The exact arithmetic is load-bearing: FaultPlan schedules recorded in
  // earlier releases replay byte-identically through this function.
  std::uint64_t z = splitmix64(seed ^ 0xC2B2AE3D27D4EB4Full);
  z = splitmix64(z ^ (static_cast<std::uint64_t>(round) * 0xFF51AFD7ED558CCDull));
  z = splitmix64(z ^ (static_cast<std::uint64_t>(node) * 0xC4CEB9FE1A85EC53ull));
  return z;
}

}  // namespace chiron
