#pragma once
// Dependence-accuracy metrics (Sec. VI-A, Table I).
//
// "We use the perfect signature as the baseline to quantify the FPR and the
// FNR of the dependences delivered by our profiler."  A dependence is false
// positive when the signature-based profiler reports it but the perfect
// baseline does not (a hash collision fabricated it or corrupted its source
// location), and false negative when the baseline reports it but the
// signature run misses it (a collision overwrote the recording).  The
// perfect signature is "a table where each memory address has its own
// entry"; the benches use the exact packed shadow store as that baseline.

#include "core/dep.hpp"

namespace depprof {

struct AccuracyResult {
  std::size_t baseline_deps = 0;  ///< |exact baseline|
  std::size_t tested_deps = 0;    ///< |signature|
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;

  /// Percentage of reported dependences that are wrong.
  double fpr_percent() const {
    return tested_deps ? 100.0 * static_cast<double>(false_positives) /
                             static_cast<double>(tested_deps)
                       : 0.0;
  }
  /// Percentage of true dependences that are missed.
  double fnr_percent() const {
    return baseline_deps ? 100.0 * static_cast<double>(false_negatives) /
                               static_cast<double>(baseline_deps)
                         : 0.0;
  }
};

/// Compares the dependence set `tested` against the collision-free
/// `baseline`.  Dependence identity is the full DepKey (type, sink, source,
/// variable, thread ids); counts and flags are not compared.
AccuracyResult compare_deps(const DepMap& baseline, const DepMap& tested);

}  // namespace depprof
