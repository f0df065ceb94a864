// Seeded violation for scripts/check_invariants.py rule
// epoch-guard-blocking: the coordinator's crossing wait (spin until the
// anchor engine's commit horizon reaches the snapshot) inside a live
// EpochGuard scope. The committers it waits for retire versions and CSR
// partitions into the same domain, so the pin would stall reclamation for
// as long as they take. The harness copies this file into a scratch src/
// tree and asserts the linter flags it. Lexical analysis only — never
// compiled.
Timestamp Select(EpochManager& epoch, const EngineIface& anchor,
                 Timestamp snap) {
  EpochGuard guard(epoch);
  AwaitCommitHorizon(anchor, snap);  // BUG (intentional): guard still live
  return snap;
}
