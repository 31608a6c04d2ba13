// NAS CG analogue: conjugate-gradient iterations with a sparse matrix in CSR
// form.  Mat-vec rows and AXPY updates are parallel; the dot products are
// reductions; the outer CG iteration is carried through p, r, and the
// scalars alpha/beta (instrumented as memory since they live in the state
// struct, as in the Fortran original's common block).
//
// Loops (source order):
//   cg-outer — NOT parallel (carried via rho/p/r state)
//   matvec   — parallel
//   dot      — parallel (reduction)
//   axpy     — parallel

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "instrument/macros.hpp"
#include "workloads/workload.hpp"

DP_FILE("cg");

namespace depprof::workloads {

namespace {

struct Csr {
  std::vector<std::uint32_t> row_ptr;
  std::vector<std::uint32_t> col;
  std::vector<double> val;
};

Csr make_matrix(std::size_t n, std::size_t nnz_per_row, Rng& rng) {
  Csr m;
  m.row_ptr.resize(n + 1);
  // Full capacity up front: a push_back reallocation would free the old
  // buffers without DP_FREE, leaving stale last-access state at addresses
  // the allocator hands out again.
  m.col.reserve(n * nnz_per_row);
  m.val.reserve(n * nnz_per_row);
  for (std::size_t i = 0; i < n; ++i) {
    m.row_ptr[i + 1] = m.row_ptr[i] + static_cast<std::uint32_t>(nnz_per_row);
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      m.col.push_back(static_cast<std::uint32_t>(rng.below(n)));
      m.val.push_back(0.01 + rng.uniform());
      DP_WRITE(m.col.back());
      DP_WRITE(m.val.back());
    }
  }
  return m;
}

}  // namespace

WorkloadResult run_cg(int scale) {
  const std::size_t n = 1'500 * static_cast<std::size_t>(scale);
  const std::size_t iters = 6;
  Rng rng(505);
  Csr a = make_matrix(n, 8, rng);
  std::vector<double> x(n, 0.0), r(n, 1.0), p(n, 1.0), q(n, 0.0);
  double rho = static_cast<double>(n);

  DP_LOOP_BEGIN();
  for (std::size_t it = 0; it < iters; ++it) {
    DP_LOOP_ITER();

    // q = A * p
    DP_LOOP_BEGIN();
    for (std::size_t i = 0; i < n; ++i) {
      DP_LOOP_ITER();
      double sum = 0.0;
      for (std::uint32_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        DP_READ(a.col[k]);
        DP_READ(a.val[k]);
        DP_READ(p[a.col[k]]);
        sum += a.val[k] * p[a.col[k]];
      }
      DP_WRITE(q[i]);
      q[i] = sum;
    }
    DP_LOOP_END();

    // alpha = rho / (p . q)
    double pq = 0.0;
    DP_LOOP_BEGIN();
    for (std::size_t i = 0; i < n; ++i) {
      DP_LOOP_ITER();
      DP_READ(p[i]);
      DP_READ(q[i]);
      DP_REDUCTION(); DP_UPDATE(pq); pq += p[i] * q[i];
    }
    DP_LOOP_END();
    DP_READ(rho);
    const double alpha = rho / (pq == 0.0 ? 1.0 : pq);

    // x += alpha p;  r -= alpha q;  rho' = r . r;  p = r + beta p
    double rho_new = 0.0;
    DP_LOOP_BEGIN();
    for (std::size_t i = 0; i < n; ++i) {
      DP_LOOP_ITER();
      DP_UPDATE(x[i]);
      x[i] += alpha * p[i];
      DP_UPDATE(r[i]);
      r[i] -= alpha * q[i];
      DP_REDUCTION(); DP_UPDATE(rho_new); rho_new += r[i] * r[i];
    }
    DP_LOOP_END();

    const double beta = rho_new / (rho == 0.0 ? 1.0 : rho);
    DP_WRITE(rho);
    rho = rho_new;
    for (std::size_t i = 0; i < n; ++i) {
      DP_READ(r[i]);
      DP_UPDATE(p[i]);
      p[i] = r[i] + beta * p[i];
    }
  }
  DP_LOOP_END();

  double check = 0.0;
  for (double v : x) check += v;
  return {static_cast<std::uint64_t>(std::fabs(check) * 1e3)};
}

Workload make_cg() {
  Workload w;
  w.name = "cg";
  w.suite = "nas";
  w.run = run_cg;
  // The NAS CG OpenMP version annotates only part of its loops (Table II:
  // 9 of 16); our analogue keeps the outer iteration sequential.
  w.loops = {{"cg-outer", false}, {"matvec", true}, {"dot", true}, {"axpy", true}};
  return w;
}

}  // namespace depprof::workloads
