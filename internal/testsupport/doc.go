// Package testsupport roots the test-support tree: reference
// implementations that check the production code from outside, and
// an encoder for a wire format the receivers still read but no sender
// writes. Its packages are
//
//   - vc: mutable vector clocks, the reference package clock is
//     checked against;
//   - causality: the causal order ≺ of §2.2 as a transitive closure,
//     the ground truth for Theorem 3;
//   - distinterp: the distributed-systems interpretation of
//     Algorithm A (§3.2, Fig. 3), made executable;
//   - wirev2: a writer of wire protocol v2 sessions (full clocks, no
//     deltas).
//
// Only _test.go files and internal/lattice/latticecheck, a harness
// that only tests import, may import the tree, so no binary links it.
// TestBoundary checks both rules.
package testsupport
