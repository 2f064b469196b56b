package runner

// Fingerprint exposes the canonical run rendering to the external test
// package, which may import packages (batch) that import runner.
var Fingerprint = fingerprint
