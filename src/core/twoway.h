// Two-way robust reconciliation (Section 1, "One-way reconciliation").
//
// The paper's models are one-way by design, but it notes: "for both models
// we consider, we can easily achieve a natural version of two-way
// reconciliation by having both Alice and Bob run the protocol once in each
// direction; however, they will generally not end with the same point set."
// These wrappers implement exactly that composition and report both ends'
// results plus the combined communication.
//
// Gap model: after the exchange, every point of S_A ∪ S_B is within r2 of
// BOTH final sets. EMD model: each party's final set is close to the other's
// original set in EMD (the two directions run independently; the paper
// notes no canonical two-way EMD guarantee exists).
#ifndef RSR_CORE_TWOWAY_H_
#define RSR_CORE_TWOWAY_H_

#include "core/emd_multiscale.h"
#include "core/gap_protocol.h"

namespace rsr {

struct TwoWayGapReport {
  /// Alice's final set: S_A ∪ T_B.
  PointStore s_a_final;
  /// Bob's final set: S_B ∪ T_A.
  PointStore s_b_final;
  GapProtocolReport a_to_b;  // Alice transmits to Bob
  GapProtocolReport b_to_a;  // Bob transmits to Alice
  CommStats comm;            // both directions
};

/// Runs the Gap protocol once in each direction (independent public coins
/// derived from the seed). Adaptive sizing (params.reconciler.adaptive /
/// params.base.adaptive on the EMD wrapper) applies per direction: each
/// direction runs its own size negotiation, and both directions' rounds are
/// appended to the combined comm.
Result<TwoWayGapReport> RunTwoWayGapProtocol(const PointStore& alice,
                                             const PointStore& bob,
                                             const GapProtocolParams& params);

struct TwoWayEmdReport {
  /// Alice's repaired copy of Bob's data, and vice versa.
  PointStore s_a_final;
  PointStore s_b_final;
  MultiscaleEmdReport a_to_b;
  MultiscaleEmdReport b_to_a;
  bool failure = false;  // either direction failed
  CommStats comm;
};

/// Runs the multiscale EMD protocol once in each direction.
Result<TwoWayEmdReport> RunTwoWayEmdProtocol(const PointStore& alice,
                                             const PointStore& bob,
                                             const MultiscaleEmdParams& params);

}  // namespace rsr

#endif  // RSR_CORE_TWOWAY_H_
