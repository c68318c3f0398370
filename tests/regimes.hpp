#pragma once
// Machine regimes the checksum-verified recovery suites are instantiated
// over. Every regime must reproduce the failure-free checksums:
//
//   default        pairwise rollback announces, all-to-all wave markers,
//                  transient failures (the victim's node comes back);
//   scalable-ctrl  leader-aggregated rollback announces and binomial-tree
//                  wave markers;
//   elastic        a two-node spare pool, and every injected failure is a
//                  permanent node loss: the victim's ranks hot-swap onto a
//                  spare (or pack onto survivors once the pool is empty).

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "mpi/machine.hpp"

namespace spbc {

enum class Regime { kDefault, kScalableCtrl, kElastic };

inline void apply_regime(Regime regime, mpi::MachineConfig& cfg) {
  switch (regime) {
    case Regime::kDefault:
      break;
    case Regime::kScalableCtrl:
      cfg.aggregate_rollbacks = true;
      cfg.tree_ckpt_markers = true;
      break;
    case Regime::kElastic:
      cfg.spare_nodes = 2;
      cfg.default_failure_kind = mpi::FailureKind::kNodePermanent;
      break;
  }
}

inline std::string regime_name(Regime regime) {
  switch (regime) {
    case Regime::kDefault:
      return "Default";
    case Regime::kScalableCtrl:
      return "ScalableCtrl";
    case Regime::kElastic:
      return "Elastic";
  }
  return "Unknown";
}

// gtest prints parameters, and PrintToStringParamName names test instances,
// with this (found by argument-dependent lookup).
inline void PrintTo(Regime regime, std::ostream* os) {
  *os << regime_name(regime);
}

inline auto all_regimes() {
  return ::testing::Values(Regime::kDefault, Regime::kScalableCtrl,
                           Regime::kElastic);
}

}  // namespace spbc
