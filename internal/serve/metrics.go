package serve

import (
	"expvar"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latBuckets is the histogram resolution: bucket i counts requests with
// latency < 2^i microseconds; the last bucket is the overflow (≥ ~8.4 s).
const latBuckets = 24

// histogram is a lock-free log2 latency histogram in microseconds.
type histogram struct {
	buckets [latBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := 0
	for v := us; v > 0; v >>= 1 {
		b++
	}
	if b >= latBuckets {
		b = latBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// quantile returns an upper-bound estimate of the q-quantile in
// microseconds (the upper edge of the bucket the quantile falls in).
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < latBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return math.Pow(2, float64(i))
		}
	}
	return math.Pow(2, float64(latBuckets-1))
}

// endpointStats are the per-endpoint counters of the observability layer.
type endpointStats struct {
	requests atomic.Int64 // all observed requests, shed included
	errors   atomic.Int64 // responses with status >= 400
	shed     atomic.Int64 // 429 responses (queue full / overload)
	latency  histogram
}

// Metrics aggregates per-endpoint request counters and latency histograms.
// The endpoint set is fixed at construction, so observation is entirely
// lock-free on the hot path.
type Metrics struct {
	eps      map[string]*endpointStats
	inflight atomic.Int64
	panics   atomic.Int64
}

// RecordPanic counts one recovered panic (handler or model inference). A
// nonzero value in /debug/vars is the operational signal that a model or
// handler is broken even though the process keeps serving.
func (m *Metrics) RecordPanic() { m.panics.Add(1) }

// NewMetrics builds counters for a fixed endpoint set and registers them
// with the process-wide expvar publication.
func NewMetrics(endpoints []string) *Metrics {
	m := &Metrics{eps: make(map[string]*endpointStats, len(endpoints))}
	for _, ep := range endpoints {
		m.eps[ep] = &endpointStats{}
	}
	registerMetrics(m)
	return m
}

// Observe records one finished request.
func (m *Metrics) Observe(endpoint string, status int, d time.Duration) {
	ep := m.eps[endpoint]
	if ep == nil {
		return
	}
	ep.requests.Add(1)
	if status >= 400 {
		ep.errors.Add(1)
	}
	if status == 429 {
		ep.shed.Add(1)
	}
	ep.latency.observe(d)
}

// Snapshot renders the counters for /debug/vars.
func (m *Metrics) Snapshot() map[string]any {
	out := make(map[string]any, len(m.eps)+1)
	for name, ep := range m.eps {
		count := ep.latency.count.Load()
		stats := map[string]any{
			"requests": ep.requests.Load(),
			"errors":   ep.errors.Load(),
			"shed":     ep.shed.Load(),
		}
		lat := map[string]any{
			"count":  count,
			"p50_us": ep.latency.quantile(0.50),
			"p90_us": ep.latency.quantile(0.90),
			"p99_us": ep.latency.quantile(0.99),
		}
		if count > 0 {
			lat["mean_us"] = float64(ep.latency.sumUS.Load()) / float64(count)
		}
		var buckets []int64
		for i := range ep.latency.buckets {
			buckets = append(buckets, ep.latency.buckets[i].Load())
		}
		lat["log2us_buckets"] = buckets
		stats["latency"] = lat
		out[name] = stats
	}
	out["inflight"] = m.inflight.Load()
	out["panics"] = m.panics.Load()
	return out
}

// Unregister removes the metrics from the expvar publication (servers in
// tests come and go; the publication must only show live ones).
func (m *Metrics) Unregister() { unregisterMetrics(m) }

// expvar only allows one Publish per name per process, but tests (and in
// principle one process hosting several servers) create multiple Metrics.
// A process-wide registry publishes the union once, summifying nothing:
// each live Metrics appears as one entry keyed by its registration order.
var (
	metricsMu   sync.Mutex
	metricsLive = map[*Metrics]int{}
	metricsSeq  int
	publishOnce sync.Once
)

func registerMetrics(m *Metrics) {
	metricsMu.Lock()
	metricsSeq++
	metricsLive[m] = metricsSeq
	metricsMu.Unlock()
	publishOnce.Do(func() {
		expvar.Publish("itrserve", expvar.Func(func() any {
			metricsMu.Lock()
			defer metricsMu.Unlock()
			if len(metricsLive) == 1 {
				for m := range metricsLive {
					return m.Snapshot()
				}
			}
			out := make(map[string]any, len(metricsLive))
			for m, id := range metricsLive {
				out["server-"+strconv.Itoa(id)] = m.Snapshot()
			}
			return out
		}))
	})
}

func unregisterMetrics(m *Metrics) {
	metricsMu.Lock()
	delete(metricsLive, m)
	metricsMu.Unlock()
}
