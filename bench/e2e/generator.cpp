#include "generator.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace e2e {

void Digest::add(std::string_view bytes) {
  for (unsigned char ch : bytes) {
    hash_ ^= ch;
    hash_ *= 0x100000001b3ULL;
  }
  add(static_cast<int64_t>(bytes.size()));
}

void Digest::add(std::span<const double> values) {
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
}

void Digest::add(int64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (static_cast<uint64_t>(value) >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

const char* family_name(Family family) {
  switch (family) {
    case Family::Jacobi:
      return "jacobi";
    case Family::GaussSeidel:
      return "gauss-seidel";
    case Family::Heat1d:
      return "heat1d";
    case Family::Chain:
      return "chain";
  }
  return "?";
}

std::string Variant::identity() const {
  std::string id = family_name(family);
  for (int k : coef) id += "/" + std::to_string(k);
  return id;
}

Variant draw_variant(Rng& rng, Family family, std::string name) {
  Variant v;
  v.family = family;
  v.name = std::move(name);
  switch (family) {
    case Family::Jacobi:
    case Family::GaussSeidel:
      for (int& k : v.coef) k = static_cast<int>(rng.between(1, 6));
      break;
    case Family::Heat1d:
      v.coef[0] = static_cast<int>(rng.between(1, 32));  // carried weight
      v.coef[1] = static_cast<int>(rng.between(1, 16));  // diffusion r
      break;
    case Family::Chain:
      v.coef[0] = static_cast<int>(rng.between(1, 32));
      v.coef[1] = static_cast<int>(rng.between(1, 32));
      break;
  }
  return v;
}

namespace {

/// k/16 as an exact decimal literal (k >= 0): four fractional digits
/// always suffice, and the literal parses back to exactly k/16.
std::string literal(int k) {
  if (k < 0) throw std::logic_error("negative coefficient literal");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%d.%04d", k / 16, (k % 16) * 625);
  return buf;
}

std::string relax_ps(const Variant& v, bool gauss_seidel) {
  const char* k_w = gauss_seidel ? "K" : "K-1";
  std::string s;
  s += v.name + ": module (InitialA: array[I,J] of real; M: int; maxK: int):\n";
  s += "  [newA: array [I, J] of real];\n";
  s += "type\n  I, J = 0 .. M+1;  K = 2 .. maxK;\n";
  s += "var\n  A: array [1 .. maxK] of array [I, J] of real;\n";
  s += "define\n  A[1] = InitialA;\n  newA = A[maxK];\n";
  s += "  A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)\n";
  s += "             then A[K-1,I,J]\n";
  s += "             else " + literal(v.coef[0]) + " * A[" + k_w + ",I,J-1] + " +
       literal(v.coef[1]) + " * A[" + k_w + ",I-1,J]\n";
  s += "                + " + literal(v.coef[2]) + " * A[K-1,I,J+1] + " +
       literal(v.coef[3]) + " * A[K-1,I+1,J];\n";
  s += "end " + v.name + ";\n";
  return s;
}

}  // namespace

std::string ps_source(const Variant& v) {
  switch (v.family) {
    case Family::Jacobi:
      return relax_ps(v, false);
    case Family::GaussSeidel:
      return relax_ps(v, true);
    case Family::Heat1d: {
      std::string s;
      s += v.name + ": module (u0: array[X] of real; N: int; steps: int):\n";
      s += "  [uOut: array [X] of real];\n";
      s += "type\n  X = 0 .. N+1;  T = 2 .. steps;\n";
      s += "var\n  u: array [1 .. steps] of array [X] of real;\n";
      s += "define\n  u[1] = u0;\n  uOut = u[steps];\n";
      s += "  u[T,X] = if (X = 0) or (X = N+1)\n           then u[T-1,X]\n";
      s += "           else " + literal(v.coef[0]) + " * u[T-1,X] + " +
           literal(v.coef[1]) +
           " * (u[T-1,X-1] - 2.0 * u[T-1,X] + u[T-1,X+1]);\n";
      s += "end " + v.name + ";\n";
      return s;
    }
    case Family::Chain: {
      std::string s;
      s += v.name + ": module (x: array[I] of real; N: int):\n";
      s += "  [y: array [I] of real];\n";
      s += "type\n  I = 0 .. N-1;\n";
      s += "var\n  a: array [I] of real;\n  b: array [I] of real;\n"
           "  c: array [I] of real;\n";
      s += "define\n";
      s += "  a[I] = x[I] * " + literal(v.coef[0]) + ";\n";
      s += "  b[I] = a[I] + " + literal(v.coef[1]) + ";\n";
      s += "  c[I] = b[I] * b[I];\n  y[I] = c[I] - a[I];\n";
      s += "end " + v.name + ";\n";
      return s;
    }
  }
  throw std::logic_error("unknown family");
}

std::string eqn_source(const Variant& v) {
  if (v.family != Family::Jacobi && v.family != Family::GaussSeidel)
    throw std::logic_error("EQN form exists for the relaxations only");
  const char* k_w = v.family == Family::GaussSeidel ? "k" : "k-1";
  std::string s;
  s += "% generated relaxation\nmodule " + v.name + ";\n";
  s += "param InitialA : real[0..M+1, 0..M+1];\nparam M : int;\n"
       "param maxK : int;\nresult newA = A^{maxK};\n\n";
  s += "A^{1}_{i,j} = InitialA_{i,j}\n  for i in 0..M+1, j in 0..M+1;\n\n";
  s += "A^{k}_{i,j} = A^{k-1}_{i,j}\n"
       "  if i = 0 \\lor j = 0 \\lor i = M+1 \\lor j = M+1\n"
       "  for k in 2..maxK, i in 0..M+1, j in 0..M+1;\n\n";
  s += "A^{k}_{i,j} = " + literal(v.coef[0]) + " \\cdot A^{" + k_w +
       "}_{i,j-1} + " + literal(v.coef[1]) + " \\cdot A^{" + k_w +
       "}_{i-1,j}\n";
  s += "  + " + literal(v.coef[2]) + " \\cdot A^{k-1}_{i,j+1} + " +
       literal(v.coef[3]) + " \\cdot A^{k-1}_{i+1,j}\n";
  s += "  otherwise\n  for k in 2..maxK, i in 0..M+1, j in 0..M+1;\n";
  return s;
}

void fill_sixteenths(Rng& rng, std::span<double> out) {
  for (double& v : out) v = static_cast<double>(rng.between(-64, 64)) / 16.0;
}

}  // namespace e2e
