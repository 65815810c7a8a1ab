// Matrix Market I/O (coordinate format), the exchange format of the paper's
// SuperLU experiment ("the memplus memory circuit design data set from the
// Matrix Market").
#pragma once

#include <string>

#include "linalg/csr.hpp"

namespace fpmix::linalg {

/// Parses a Matrix Market coordinate-format `matrix` with `real` or
/// `integer` fields, `general` or `symmetric` symmetry. Throws Error on
/// malformed input.
Csr<double> read_matrix_market(std::string_view text);

/// Serializes a CSR matrix as coordinate general real.
std::string write_matrix_market(const Csr<double>& a);

/// File variant.
void write_matrix_market_file(const Csr<double>& a, const std::string& path);

}  // namespace fpmix::linalg
