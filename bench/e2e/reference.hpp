#pragma once

// Hand-written reference kernels for every module the workloads run.
// Each one is written from the module's equations alone -- never from the
// compiler under test -- and evaluates every right-hand side in the
// module's own term order (left-to-right sums, the same operand order),
// so its results are bit-identical to a correct bytecode VM or native
// kernel. Parameters are the generator's draws.

#include <array>
#include <cstdint>
#include <vector>

namespace e2e::ref {

/// A (M+2) x (M+2) grid over 0..M+1 in both dimensions, row-major.
using Grid = std::vector<double>;

/// Figure 1 (Jacobi) or section 4 (Gauss-Seidel) relaxation: newA after
/// maxK-1 sweeps of (west + north + east + south) / 4, boundary carried.
[[nodiscard]] Grid paper_relax(const Grid& initial, int64_t m, int64_t max_k,
                               bool gauss_seidel);

/// The generator's weighted relaxation: w0*west + w1*north + w2*east +
/// w3*south.
[[nodiscard]] Grid weighted_relax(const Grid& initial, int64_t m,
                                  int64_t max_k, bool gauss_seidel,
                                  const std::array<double, 4>& w);

/// The skewed-cost Gauss-Seidel with the diag/edge consumers.
struct SkewedOutputs {
  Grid new_a;
  std::vector<double> diag;  // A[maxK, I, I]
  std::vector<double> edge;  // A[maxK, 1, J]
};
[[nodiscard]] SkewedOutputs skewed_relax(const Grid& initial, int64_t m,
                                         int64_t max_k);

/// The heat1d variant over X = 0..N+1: c0*u + c1*(u[-1] - 2u + u[+1]).
[[nodiscard]] std::vector<double> heat1d(const std::vector<double>& u0,
                                         int64_t n, int64_t steps, double c0,
                                         double c1);

/// The pointwise chain variant: y = (x*c0 + c1)^2 - x*c0.
[[nodiscard]] std::vector<double> chain(const std::vector<double>& x,
                                        double c0, double c1);

}  // namespace e2e::ref
