package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps the traced run's spans and per-layer observations in
// memory; they are reduced to the per-layer metrics and written out as
// JSON lines when the run ends.  A disabled tracer records nothing, so
// untraced runs pay only the time.Now calls around each layer call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
	obs   map[string][]float64 // per-event values (bytes, µs per series, ...)
	sums  map[string]float64   // counters (drops, bytes, samples)
}

// span is one timed call into a layer.  Spans of one operation share
// the operation span as their parent.
type span struct {
	Name   string `json:"name"`
	Stage  string `json:"stage,omitempty"` // the stage process that recorded it
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the stage's tracer was created
	End    int64  `json:"end_ns"`
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), obs: map[string][]float64{}, sums: map[string]float64{}}
}

// id allocates a span identifier (0 when tracing is off).
func (t *tracer) id() int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// span records a call into a layer that began at start and ends now,
// and returns its identifier.
func (t *tracer) span(name string, parent int64, start time.Time) int64 {
	if !t.on {
		return 0
	}
	id := t.id()
	t.spanWithID(id, name, parent, start, time.Now())
	return id
}

// spanWithID records a span whose identifier was allocated up front
// (an operation span its children already point at).
func (t *tracer) spanWithID(id int64, name string, parent int64, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// observe records one value of a per-event layer quantity.
func (t *tracer) observe(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.obs[name] = append(t.obs[name], v)
	t.mu.Unlock()
}

// add accumulates a layer counter.
func (t *tracer) add(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// traceDump is a stage's trace as it travels to the invoking process.
type traceDump struct {
	Next  int64                `json:"next"`
	Spans []span               `json:"spans,omitempty"`
	Obs   map[string][]float64 `json:"obs,omitempty"`
	Sums  map[string]float64   `json:"sums,omitempty"`
}

// dump is the trace so far; nil when tracing is off.
func (t *tracer) dump() *traceDump {
	if !t.on {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &traceDump{Next: t.next, Spans: t.spans, Obs: t.obs, Sums: t.sums}
}

// merge adds a stage's trace, renumbering its spans after this
// tracer's own.
func (t *tracer) merge(d *traceDump, stage string) {
	if !t.on || d == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.next
	for _, s := range d.Spans {
		s.Stage, s.ID = stage, s.ID+base
		if s.Parent != 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.next += d.Next
	for name, vs := range d.Obs {
		t.obs[name] = append(t.obs[name], vs...)
	}
	for name, v := range d.Sums {
		t.sums[name] += v
	}
}

// durations returns the span durations of the named layers, in the
// given unit.
func (t *tracer) durations(unit time.Duration, names ...string) []float64 {
	var out []float64
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, float64(s.End-s.Start)/float64(unit))
			}
		}
	}
	return out
}

// layerMetric is one per-layer metric: its name and unit as listed in
// BENCHMARK.json, and how it is reduced from the trace.  A layer the
// workload does not call reads 0.
type layerMetric struct {
	name, unit, better string
	value              func(t *tracer) float64
}

func spanMedian(unit time.Duration, names ...string) func(*tracer) float64 {
	return func(t *tracer) float64 { return median(t.durations(unit, names...)) }
}

func obsMedian(name string) func(*tracer) float64 {
	return func(t *tracer) float64 { return median(t.obs[name]) }
}

func sum(name string) func(*tracer) float64 {
	return func(t *tracer) float64 { return t.sums[name] }
}

func ratio(num, den string) func(*tracer) float64 {
	return func(t *tracer) float64 {
		if t.sums[den] == 0 {
			return 0
		}
		return t.sums[num] / t.sums[den]
	}
}

// layerMetrics is the per-layer metric table, in BENCHMARK.json order.
var layerMetrics = []layerMetric{
	{"cluster.write_ms", "ms", "lower", spanMedian(time.Millisecond, "cluster.write")},
	{"push.encode_ms", "ms", "lower", obsMedian("push.encode_ms")},
	{"push.wire_bytes_per_sample", "B/sample", "lower", ratio("push.wire_bytes", "push.wire_samples")},
	{"ingest.post_ms", "ms", "lower", spanMedian(time.Millisecond, "ingest.post.new", "ingest.post.known")},
	{"ingest.post_ms_new_series", "ms", "lower", spanMedian(time.Millisecond, "ingest.post.new")},
	{"ingest.post_ms_known_series", "ms", "lower", spanMedian(time.Millisecond, "ingest.post.known")},
	{"ingest.cold_series_us", "us", "lower", obsMedian("ingest.cold_series_us")},
	{"forward.hop_ms", "ms", "lower", spanMedian(time.Millisecond, "forward.hop")},
	{"forward.dropped_samples", "count", "lower", sum("forward.dropped_samples")},
	{"cluster.shard_imbalance", "ratio", "lower", obsMedian("cluster.shard_imbalance")},
	{"persist.restore_s", "s", "lower", spanMedian(time.Second, "persist.restore")},
	{"persist.snapshot_ms", "ms", "lower", spanMedian(time.Millisecond, "persist.snapshot")},
	{"persist.wal_bytes_per_sample", "B/sample", "lower", obsMedian("persist.wal_bytes_per_sample")},
	{"query.fanout_ms", "ms", "lower", spanMedian(time.Millisecond, "query.fanout")},
	{"query.series_ms", "ms", "lower", spanMedian(time.Millisecond, "query.series")},
	{"query.response_bytes", "B", "lower", obsMedian("query.response_bytes")},
	{"index.select_us", "us", "lower", spanMedian(time.Microsecond, "index.select")},
	{"store.window_us", "us", "lower", spanMedian(time.Microsecond, "store.window")},
	{"derive.eval_ms_cached", "ms", "lower", spanMedian(time.Millisecond, "derive.eval.cached")},
	{"derive.eval_ms_cold", "ms", "lower", spanMedian(time.Millisecond, "derive.eval.cold")},
	{"alert.eval_ms_cached", "ms", "lower", spanMedian(time.Millisecond, "alert.eval.cached")},
	{"alert.eval_ms_cold", "ms", "lower", spanMedian(time.Millisecond, "alert.eval.cold")},
	{"stream.point_ms", "ms", "lower", spanMedian(time.Millisecond, "stream.point")},
	{"jacobi.run_ms", "ms", "lower", spanMedian(time.Millisecond, "jacobi.run")},
	{"perfctr.table2_ms", "ms", "lower", spanMedian(time.Millisecond, "perfctr.table2")},
	{"topology.report_ms", "ms", "lower", spanMedian(time.Millisecond, "topology.report")},
}

// layerMetrics reduces the trace to every per-layer metric.
func (t *tracer) layerMetrics() map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{Value: m.value(t), Unit: m.unit}
	}
	return out
}

// writeSpans writes every recorded span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
