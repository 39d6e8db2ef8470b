#pragma once

// Seeded workload generation: module variants in four families (PS and,
// for the two relaxations, EQN), input grids of 1/16 multiples, and the
// digest that proves two builds ran identical inputs.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace e2e {

/// splitmix64: the harness's only source of randomness, so a seed fixes
/// every source, coefficient and input value on any platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// FNV-1a 64 over everything a workload generates.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::span<const double> values);
  void add(int64_t value);
  [[nodiscard]] std::string hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

enum class Family { Jacobi, GaussSeidel, Heat1d, Chain };

[[nodiscard]] const char* family_name(Family family);

/// One generated module. Coefficient i is coef[i] / 16, written into the
/// source as an exact decimal literal, so every draw is a distinct source
/// (and a distinct native kernel) whose arithmetic is exact to state.
struct Variant {
  Family family = Family::Jacobi;
  std::array<int, 4> coef{};
  std::string name;

  [[nodiscard]] double c(size_t i) const { return coef[i] / 16.0; }
  /// Variants are equal when their sources are: same family and draws.
  [[nodiscard]] std::string identity() const;
};

/// Draw the coefficients of a `family` variant. Stencil weights stay in
/// 1/16..6/16 and heat/chain constants in small ranges, so values stay
/// finite and far from denormals at every size the workloads use.
[[nodiscard]] Variant draw_variant(Rng& rng, Family family, std::string name);

/// The variant as a PS module.
[[nodiscard]] std::string ps_source(const Variant& variant);

/// The variant as an EQN (TeX-style equation) module; Jacobi and
/// Gauss-Seidel only.
[[nodiscard]] std::string eqn_source(const Variant& variant);

/// Fill `out` with seeded multiples of 1/16 in [-4, 4].
void fill_sixteenths(Rng& rng, std::span<double> out);

}  // namespace e2e
