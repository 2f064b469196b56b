package server

import (
	"encoding/json"
	"expvar"
	"sync"
	"time"
)

// histBounds are the latency histogram bucket upper bounds. Log-spaced:
// cache hits land in the low milliseconds, small simulations in the
// hundreds, dense ones in the tens of seconds.
var histBounds = []time.Duration{
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
	60 * time.Second,
	120 * time.Second,
}

// latencyHist is a fixed-bucket latency histogram. It implements
// expvar.Var: String renders the counts plus estimated quantiles as
// JSON, so a histogram nests directly inside an expvar.Map.
type latencyHist struct {
	mu     sync.Mutex
	counts []uint64 // len(histBounds)+1; last bucket is +inf
	sum    time.Duration
	n      uint64
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]uint64, len(histBounds)+1)}
}

// Observe records one request duration.
func (h *latencyHist) Observe(d time.Duration) {
	i := 0
	for i < len(histBounds) && d > histBounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.n++
	h.sum += d
	h.mu.Unlock()
}

// quantileLocked returns an upper-bound estimate of the q-quantile: the
// bound of the bucket where the cumulative count crosses q·n. Callers
// hold h.mu.
func (h *latencyHist) quantileLocked(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(histBounds) {
				return histBounds[i]
			}
			return -1 // beyond the last bound; reported as "inf"
		}
	}
	return -1
}

// histBucket is one rendered histogram bucket.
type histBucket struct {
	LE string `json:"le"` // bucket upper bound, or "inf"
	N  uint64 `json:"n"`
}

// String implements expvar.Var with a JSON object:
// count, mean/percentile estimates in milliseconds, non-empty buckets.
func (h *latencyHist) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := struct {
		Count   uint64       `json:"count"`
		MeanMS  float64      `json:"mean_ms"`
		P50MS   any          `json:"p50_ms"`
		P95MS   any          `json:"p95_ms"`
		P99MS   any          `json:"p99_ms"`
		Buckets []histBucket `json:"buckets"`
	}{Count: h.n}
	if h.n > 0 {
		out.MeanMS = float64(h.sum.Microseconds()) / float64(h.n) / 1000
	}
	out.P50MS = quantileMS(h.quantileLocked(0.50))
	out.P95MS = quantileMS(h.quantileLocked(0.95))
	out.P99MS = quantileMS(h.quantileLocked(0.99))
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		le := "inf"
		if i < len(histBounds) {
			le = histBounds[i].String()
		}
		out.Buckets = append(out.Buckets, histBucket{LE: le, N: c})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return `{"error":"histogram marshal"}`
	}
	return string(b)
}

// quantileMS renders a quantile estimate for JSON: milliseconds, or
// "inf" past the last bucket bound.
func quantileMS(d time.Duration) any {
	if d < 0 {
		return "inf"
	}
	return float64(d.Microseconds()) / 1000
}

// metricsSet is one server's instrumentation. Counters are expvar types
// assembled into a private expvar.Map (not published to the global
// expvar registry, which would panic on the second server in one
// process); /metrics serves the map's JSON rendering.
type metricsSet struct {
	hits      expvar.Int // /v1/run answered straight from the store
	misses    expvar.Int // /v1/run that admitted a new job
	coalesced expvar.Int // /v1/run that joined an in-flight job
	rejected  expvar.Int // 429s (queue full or per-client limit)
	executed  expvar.Int // jobs completed successfully
	failed    expvar.Int // jobs completed with an error
	running   expvar.Int // jobs holding a worker slot right now

	start     time.Time
	endpoints map[string]*latencyHist
	top       *expvar.Map
}

// newMetricsSet builds the instrumentation tree. queueDepth and
// storeLen are sampled at render time.
func newMetricsSet(queueDepth func() int, storeLen func() int) *metricsSet {
	m := &metricsSet{
		start:     time.Now(),
		endpoints: make(map[string]*latencyHist),
	}
	lat := new(expvar.Map).Init()
	for _, name := range []string{"run", "result", "jobs", "generate"} {
		h := newLatencyHist()
		m.endpoints[name] = h
		lat.Set(name, h)
	}
	top := new(expvar.Map).Init()
	top.Set("hits", &m.hits)
	top.Set("misses", &m.misses)
	top.Set("coalesced", &m.coalesced)
	top.Set("rejected", &m.rejected)
	top.Set("executed", &m.executed)
	top.Set("failed", &m.failed)
	top.Set("in_flight", &m.running)
	top.Set("queue_depth", expvar.Func(func() any { return queueDepth() }))
	top.Set("store_entries", expvar.Func(func() any { return storeLen() }))
	top.Set("uptime_seconds", expvar.Func(func() any {
		return time.Since(m.start).Seconds()
	}))
	top.Set("latency", lat)
	m.top = top
	return m
}

// endpoint returns the named latency histogram (panics on a name not
// registered in newMetricsSet — a programming error, caught by any
// test that touches the endpoint).
func (m *metricsSet) endpoint(name string) *latencyHist {
	h, ok := m.endpoints[name]
	if !ok {
		panic("server: unknown metrics endpoint " + name)
	}
	return h
}
