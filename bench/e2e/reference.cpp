#include "reference.hpp"

#include <cstddef>

namespace e2e::ref {

namespace {

/// Sweeps K = 2..maxK of a boundary-carrying 2-D recurrence. `point`
/// gets (i, j, west, north, east, south); west/north come from the
/// current sweep for Gauss-Seidel (row-major order has computed them
/// already) and from the previous one for Jacobi. East and south always
/// come from the previous sweep. Returns the last sweep, A[maxK].
template <typename Point>
Grid sweep(const Grid& initial, int64_t m, int64_t max_k, bool gauss_seidel,
           Point point) {
  const int64_t n = m + 2;
  Grid prev = initial;
  Grid cur(prev.size());
  for (int64_t k = 2; k <= max_k; ++k) {
    const Grid& wn = gauss_seidel ? cur : prev;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        const int64_t at = i * n + j;
        if (i == 0 || j == 0 || i == m + 1 || j == m + 1) {
          cur[at] = prev[at];
          continue;
        }
        cur[at] = point(i, j, wn[at - 1], wn[at - n], prev[at + 1],
                        prev[at + n]);
      }
    }
    prev.swap(cur);
  }
  return prev;
}

}  // namespace

Grid paper_relax(const Grid& initial, int64_t m, int64_t max_k,
                 bool gauss_seidel) {
  return sweep(initial, m, max_k, gauss_seidel,
               [](int64_t, int64_t, double w, double n, double e, double s) {
                 return (w + n + e + s) / 4;
               });
}

Grid weighted_relax(const Grid& initial, int64_t m, int64_t max_k,
                    bool gauss_seidel, const std::array<double, 4>& c) {
  return sweep(initial, m, max_k, gauss_seidel,
               [&c](int64_t, int64_t, double w, double n, double e, double s) {
                 return c[0] * w + c[1] * n + c[2] * e + c[3] * s;
               });
}

SkewedOutputs skewed_relax(const Grid& initial, int64_t m, int64_t max_k) {
  SkewedOutputs out;
  out.new_a = sweep(
      initial, m, max_k, true,
      [](int64_t i, int64_t j, double w, double n, double e, double s) {
        if (i < j) return (w + e) / 2;
        return (w + n + e + s + w + n + e + s + w + n + e + s + w + n + e +
                s) /
               16;
      });
  const int64_t side = m + 2;
  for (int64_t i = 0; i < side; ++i)
    out.diag.push_back(out.new_a[i * side + i]);
  for (int64_t j = 0; j < side; ++j) out.edge.push_back(out.new_a[side + j]);
  return out;
}

std::vector<double> heat1d(const std::vector<double>& u0, int64_t n,
                           int64_t steps, double c0, double c1) {
  std::vector<double> prev = u0;
  std::vector<double> cur(prev.size());
  for (int64_t t = 2; t <= steps; ++t) {
    for (int64_t x = 0; x <= n + 1; ++x) {
      if (x == 0 || x == n + 1) {
        cur[x] = prev[x];
        continue;
      }
      cur[x] = c0 * prev[x] +
               c1 * (prev[x - 1] - 2.0 * prev[x] + prev[x + 1]);
    }
    prev.swap(cur);
  }
  return prev;
}

std::vector<double> chain(const std::vector<double>& x, double c0,
                          double c1) {
  std::vector<double> y(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const double a = x[i] * c0;
    const double b = a + c1;
    const double c = b * b;
    y[i] = c - a;
  }
  return y;
}

}  // namespace e2e::ref
