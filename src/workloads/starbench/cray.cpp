// Starbench c-ray analogue: a small sphere ray tracer.  Per-pixel work reads
// the read-only scene and writes one disjoint pixel — the classic
// embarrassingly parallel loop (rows in the pthread version).  Touches a
// large framebuffer, giving c-ray its "many distinct addresses" character
// that drives signature FPR up (Table I).
//
// Loops (source order):
//   pixels — parallel

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "instrument/macros.hpp"
#include "workloads/workload.hpp"

DP_FILE("c-ray");

namespace depprof::workloads {
namespace {

constexpr std::size_t kSpheres = 16;

struct Scene {
  std::vector<double> cx, cy, cz, rad;
};

Scene make_scene() {
  Rng rng(808);
  Scene s;
  // Full capacity up front, so no push_back frees a profiled buffer
  // without DP_FREE.
  for (auto* v : {&s.cx, &s.cy, &s.cz, &s.rad}) v->reserve(kSpheres);
  for (std::size_t i = 0; i < kSpheres; ++i) {
    s.cx.push_back(rng.uniform() * 10.0 - 5.0);
    s.cy.push_back(rng.uniform() * 10.0 - 5.0);
    s.cz.push_back(rng.uniform() * 5.0 + 2.0);
    s.rad.push_back(0.2 + rng.uniform());
    DP_WRITE(s.cx[i]);
    DP_WRITE(s.cy[i]);
    DP_WRITE(s.cz[i]);
    DP_WRITE(s.rad[i]);
  }
  return s;
}

double trace_pixel(const Scene& s, std::size_t px, std::size_t py,
                   std::size_t w, std::size_t h) {
  const double dx = (static_cast<double>(px) / static_cast<double>(w)) * 2.0 - 1.0;
  const double dy = (static_cast<double>(py) / static_cast<double>(h)) * 2.0 - 1.0;
  const double norm = std::sqrt(dx * dx + dy * dy + 1.0);
  double best = 1e30, shade = 0.0;
  for (std::size_t i = 0; i < kSpheres; ++i) {
    DP_READ(s.cx[i]);
    DP_READ(s.cy[i]);
    DP_READ(s.cz[i]);
    DP_READ(s.rad[i]);
    // Ray-sphere intersection with the normalized view ray.
    const double ox = -s.cx[i], oy = -s.cy[i], oz = -s.cz[i];
    const double rdx = dx / norm, rdy = dy / norm, rdz = 1.0 / norm;
    const double b = ox * rdx + oy * rdy + oz * rdz;
    const double c = ox * ox + oy * oy + oz * oz - s.rad[i] * s.rad[i];
    const double disc = b * b - c;
    if (disc > 0.0) {
      const double t = -b - std::sqrt(disc);
      if (t > 0.0 && t < best) {
        best = t;
        shade = 1.0 / (1.0 + t * 0.1);
      }
    }
  }
  return shade;
}

}  // namespace

WorkloadResult run_cray(int scale) {
  const std::size_t w = 128, h = 64 * static_cast<std::size_t>(scale);
  Scene s = make_scene();
  std::vector<double> image(w * h, 0.0);

  DP_LOOP_BEGIN();
  for (std::size_t p = 0; p < w * h; ++p) {
    DP_LOOP_ITER();
    const double v = trace_pixel(s, p % w, p / w, w, h);
    DP_WRITE(image[p]);
    image[p] = v;
  }
  DP_LOOP_END();

  std::uint64_t check = 0;
  for (double v : image) check += static_cast<std::uint64_t>(v * 255.0);
  return {check};
}

WorkloadResult run_cray_parallel(int scale, unsigned threads) {
  const std::size_t w = 128, h = 64 * static_cast<std::size_t>(scale);
  Scene s = make_scene();
  std::vector<double> image(w * h, 0.0);

  DP_SYNC();  // spawning orders the scene-init writes
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const std::size_t lo = (w * h) * t / threads;
      const std::size_t hi = (w * h) * (t + 1) / threads;
      for (std::size_t p = lo; p < hi; ++p) {
        const double v = trace_pixel(s, p % w, p / w, w, h);
        DP_WRITE(image[p]);
        image[p] = v;
      }
    });
  }
  for (auto& th : pool) th.join();

  std::uint64_t check = 0;
  for (double v : image) check += static_cast<std::uint64_t>(v * 255.0);
  return {check};
}

Workload make_cray() {
  Workload w;
  w.name = "c-ray";
  w.suite = "starbench";
  w.run = run_cray;
  w.run_parallel = run_cray_parallel;
  w.loops = {{"pixels", true}};
  return w;
}

}  // namespace depprof::workloads
