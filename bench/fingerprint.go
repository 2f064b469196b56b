package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"strconv"

	"ecgrid/internal/runner"
)

// recordedJSON holds each workload's fingerprints at the default seed's
// first inputs, inputSeed(1, i) for i < minReps, as this benchmark printed
// them. A run at that seed must reproduce them.
//
//go:embed fingerprints.json
var recordedJSON []byte

// recordedFingerprints decodes recordedJSON: workload name → fingerprints.
func recordedFingerprints() (map[string][]string, error) {
	var m map[string][]string
	if err := json.Unmarshal(recordedJSON, &m); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return m, nil
}

// writeProjection writes the fixed, named projection of one run's results
// that fingerprints cover: traffic outcome, latency statistics, host
// deaths, the alive and energy series, and the named radio counters.
// Fields a later change adds to runner.Results stay out of the hash until
// they are named here, so the recorded fingerprints survive such changes.
func writeProjection(w io.Writer, r *runner.Results) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(w, "sent=%d delivered=%d\n", r.Sent, r.Delivered)
	fmt.Fprintf(w, "latency mean=%s max=%s median=%s\n", f(r.MeanLatency), f(r.MaxLatency), f(r.MedianLatency))
	fmt.Fprintf(w, "deaths=%d first=%s\n", r.Deaths, f(r.FirstDeathAt))
	for _, p := range r.Alive {
		fmt.Fprintf(w, "alive %s %s\n", f(p.T), f(p.V))
	}
	for _, p := range r.Aen {
		fmt.Fprintf(w, "aen %s %s\n", f(p.T), f(p.V))
	}
	c := r.Radio
	fmt.Fprintf(w, "radio sent=%d queued=%d deliveries=%d collisions=%d retries=%d unicastfailed=%d bytes=%d deferred=%d jammed=%d\n",
		c.FramesSent, c.FramesQueued, c.Deliveries, c.Collisions, c.Retries,
		c.UnicastFailed, c.BytesOnAir, c.DeferredAccess, c.Jammed)
}

// projectionHash fingerprints one run.
func projectionHash(r *runner.Results) string {
	h := sha256.New()
	writeProjection(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprinter hashes a workload's runs, each under a label, in the order
// they are added.
type fingerprinter struct{ h hash.Hash }

func newFingerprinter() *fingerprinter { return &fingerprinter{h: sha256.New()} }

func (f *fingerprinter) add(label string, r *runner.Results) {
	fmt.Fprintf(f.h, "run %s\n", label)
	writeProjection(f.h, r)
}

func (f *fingerprinter) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// checkRun returns the invariant violations of one run's results.
func checkRun(label string, r *runner.Results) []string {
	var bad []string
	if r.FrameLeaks != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d leaked radio frames", label, r.FrameLeaks))
	}
	if r.Delivered > r.Sent {
		bad = append(bad, fmt.Sprintf("%s: delivered %d > sent %d", label, r.Delivered, r.Sent))
	}
	return bad
}
