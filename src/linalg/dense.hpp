// Dense linear algebra templated over the scalar type.
//
// Used natively (outside the VM) for three purposes: reference solutions
// when validating the virtual kernels, the double/float speedup twins of
// Section 3.2/3.3, and the mixed-precision iterative refinement algorithm of
// Figure 12 (LU in single precision, residual correction in double).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "support/error.hpp"

namespace fpmix::linalg {

/// Row-major dense matrix.
template <typename T>
class Dense {
 public:
  Dense() = default;
  Dense(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), a_(rows * cols, T(0)) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  T& at(std::size_t i, std::size_t j) { return a_[i * cols_ + j]; }
  const T& at(std::size_t i, std::size_t j) const { return a_[i * cols_ + j]; }
  const std::vector<T>& data() const { return a_; }
  std::vector<T>& data() { return a_; }

  /// y = A x
  std::vector<T> matvec(const std::vector<T>& x) const {
    FPMIX_CHECK(x.size() == cols_);
    std::vector<T> y(rows_, T(0));
    for (std::size_t i = 0; i < rows_; ++i) {
      T acc = T(0);
      for (std::size_t j = 0; j < cols_; ++j) acc += at(i, j) * x[j];
      y[i] = acc;
    }
    return y;
  }

  /// Converts element-wise (double -> float narrows once per entry).
  template <typename U>
  Dense<U> cast() const {
    Dense<U> out(rows_, cols_);
    for (std::size_t i = 0; i < a_.size(); ++i) {
      out.data()[i] = static_cast<U>(a_[i]);
    }
    return out;
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<T> a_;
};

/// In-place LU factorization with partial pivoting. Returns the pivot
/// permutation (`piv[k]` = row swapped into position k at step k).
/// Throws Error on exact singularity.
template <typename T>
std::vector<std::size_t> lu_factor(Dense<T>* a);

/// Solves LU x = P b for `x` given the output of lu_factor.
template <typename T>
std::vector<T> lu_solve(const Dense<T>& lu, const std::vector<std::size_t>& piv,
                        const std::vector<T>& b);

/// Convenience: solve A x = b by factor+solve on a copy.
template <typename T>
std::vector<T> dense_solve(const Dense<T>& a, const std::vector<T>& b);

/// Vector helpers.
template <typename T>
T norm_inf(const std::vector<T>& v) {
  T m = T(0);
  for (T x : v) m = std::max(m, static_cast<T>(std::fabs(double(x))));
  return m;
}

/// r = b - A x (computed in T precision).
template <typename T>
std::vector<T> residual(const Dense<T>& a, const std::vector<T>& x,
                        const std::vector<T>& b) {
  std::vector<T> ax = a.matvec(x);
  std::vector<T> r(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = b[i] - ax[i];
  return r;
}

// ---- explicit instantiation declarations ----------------------------------
extern template std::vector<std::size_t> lu_factor<double>(Dense<double>*);
extern template std::vector<std::size_t> lu_factor<float>(Dense<float>*);
extern template std::vector<double> lu_solve<double>(
    const Dense<double>&, const std::vector<std::size_t>&,
    const std::vector<double>&);
extern template std::vector<float> lu_solve<float>(
    const Dense<float>&, const std::vector<std::size_t>&,
    const std::vector<float>&);
extern template std::vector<double> dense_solve<double>(
    const Dense<double>&, const std::vector<double>&);
extern template std::vector<float> dense_solve<float>(
    const Dense<float>&, const std::vector<float>&);

}  // namespace fpmix::linalg
