#include "linalg/matrix_market.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace fpmix::linalg {

Csr<double> read_matrix_market(std::string_view text) {
  const std::vector<std::string_view> lines = split_lines(text);
  std::size_t li = 0;
  if (lines.empty()) throw Error("matrix market: empty input");

  // Header: %%MatrixMarket matrix coordinate real|integer general|symmetric
  const auto header = split_fields(lines[0]);
  if (header.size() < 5 || header[0] != "%%MatrixMarket" ||
      header[1] != "matrix" || header[2] != "coordinate") {
    throw Error("matrix market: unsupported or malformed header");
  }
  const bool is_real = header[3] == "real" || header[3] == "integer";
  if (!is_real) {
    throw Error("matrix market: only real/integer fields supported");
  }
  const bool symmetric = header[4] == "symmetric";
  if (!symmetric && header[4] != "general") {
    throw Error("matrix market: only general/symmetric supported");
  }
  ++li;

  // Skip comments.
  while (li < lines.size() && (trim(lines[li]).empty() ||
                               trim(lines[li]).front() == '%')) {
    ++li;
  }
  if (li >= lines.size()) throw Error("matrix market: missing size line");
  std::size_t rows = 0, cols = 0, entries = 0;
  {
    std::istringstream ss{std::string(lines[li])};
    if (!(ss >> rows >> cols >> entries)) {
      throw Error("matrix market: malformed size line");
    }
  }
  if (rows != cols) throw Error("matrix market: only square supported");
  ++li;

  std::vector<std::map<std::size_t, double>> rowmaps(rows);
  std::size_t seen = 0;
  for (; li < lines.size() && seen < entries; ++li) {
    const auto t = trim(lines[li]);
    if (t.empty() || t.front() == '%') continue;
    std::size_t i = 0, j = 0;
    double v = 0;
    std::istringstream ss{std::string(t)};
    if (!(ss >> i >> j >> v)) {
      throw Error(strformat("matrix market: malformed entry '%s'",
                            std::string(t).c_str()));
    }
    if (i < 1 || j < 1 || i > rows || j > cols) {
      throw Error("matrix market: index out of range");
    }
    rowmaps[i - 1][j - 1] = v;
    if (symmetric && i != j) rowmaps[j - 1][i - 1] = v;
    ++seen;
  }
  if (seen != entries) throw Error("matrix market: truncated entry list");

  Csr<double> a;
  a.n = rows;
  a.rowptr.push_back(0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (const auto& [j, v] : rowmaps[i]) {
      a.col.push_back(static_cast<std::int64_t>(j));
      a.val.push_back(v);
    }
    a.rowptr.push_back(static_cast<std::int64_t>(a.col.size()));
  }
  return a;
}

std::string write_matrix_market(const Csr<double>& a) {
  std::string out = "%%MatrixMarket matrix coordinate real general\n";
  out += strformat("%zu %zu %zu\n", a.n, a.n, a.nnz());
  for (std::size_t i = 0; i < a.n; ++i) {
    for (std::int64_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      out += strformat("%zu %lld %.17g\n", i + 1,
                       static_cast<long long>(
                           a.col[static_cast<std::size_t>(k)] + 1),
                       a.val[static_cast<std::size_t>(k)]);
    }
  }
  return out;
}

void write_matrix_market_file(const Csr<double>& a, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw Error(strformat("cannot open %s for writing", path.c_str()));
  f << write_matrix_market(a);
}

}  // namespace fpmix::linalg
