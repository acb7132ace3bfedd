package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"likwid/internal/alert"
	"likwid/internal/experiments"
	"likwid/internal/monitor"
	"likwid/internal/stats"
)

func testConfig(t *testing.T) config {
	return config{seed: 7, seconds: 1, trace: true, workDir: t.TempDir()}
}

// runSmall runs a reduced-size workload's stages in this process and
// returns its outcome and merged trace.
func runSmall(t *testing.T, w workload) (*outcome, *tracer) {
	t.Helper()
	cfg := testConfig(t)
	tr := newTracer(true)
	out, err := runStages(cfg, tr, w, inProcessSpawner(cfg, w))
	if err != nil {
		t.Fatal(err)
	}
	return out, tr
}

// The per-layer table and the six end-to-end metrics are what
// BENCHMARK.json declares, name for name and unit for unit.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(&outcome{setupRuns: []float64{1}, chunks: []chunk{{Samples: 1, Seconds: 1, CPU: 1, Latencies: []float64{1}}}, peakMB: 1})
	if len(bench.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(bench.EndToEnd), len(e2e))
	}
	for _, m := range bench.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the trace %d", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range bench.PerLayer {
		if l := layerMetrics[i]; l.name != m.Name || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, trace %s %s %s", i, m, l.name, l.unit, l.better)
		}
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
}

// assertClean fails on any failed output check.
func assertClean(t *testing.T, out *outcome) {
	t.Helper()
	for _, p := range out.problems {
		t.Error("check failed:", p)
	}
	samples, seconds, ops := out.totals()
	if out.attempted < 1 || ops != out.attempted || samples < 1 || seconds <= 0 || len(out.setupRuns) == 0 {
		t.Errorf("empty measurement: %+v", out)
	}
}

// smallFleet keeps the backfill above the forward hop's 4,096-sample
// buffer, so the truncation fault shows as one failed op per round.
var smallFleet = fleetShape{agents: 4, series: 32, ticks: 16, backfillSeries: 320, retain: 64, setups: 2,
	poolNodes: 1, poolTicks: 8, roundsPerSecond: 3}

func TestSmokeFleetPush(t *testing.T) {
	out, tr := runSmall(t, fleetWorkload(smallFleet))
	assertClean(t, out)
	if len(out.setupRuns) != smallFleet.setups {
		t.Errorf("%d set-up times, want %d", len(out.setupRuns), smallFleet.setups)
	}
	if want := 3 * (smallFleet.agents + 1); out.attempted != want || out.failed != 3 {
		t.Errorf("attempted %d failed %d, want %d and one backfill per round", out.attempted, out.failed, want)
	}
	m := tr.layerMetrics()
	if got := m["forward.dropped_samples"].Value; got != 3*(320*16-4096) {
		t.Errorf("forward.dropped_samples = %v", got)
	}
	for _, name := range []string{"cluster.write_ms", "push.encode_ms", "forward.hop_ms", "ingest.post_ms_known_series", "cluster.shard_imbalance"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
}

var smallChurn = churnShape{
	sources: 2, metrics: 4, ids: 2, ticks: 16, roundsPerJob: 4,
	restoredJobs: 4, walJobs: 1, retain: 32, tiers: "10s:8,1m:8",
	warmupRounds: 4, jobsPerChunk: 1, restores: 2, seriesQueries: 2, chunksPerSecond: 2,
}

func TestSmokeChurnQuery(t *testing.T) {
	out, tr := runSmall(t, churnWorkload(smallChurn))
	assertClean(t, out)
	if len(out.setupRuns) != smallChurn.restores {
		t.Errorf("%d set-up times, want %d", len(out.setupRuns), smallChurn.restores)
	}
	if out.attempted != 8 || out.failed != 0 {
		t.Errorf("attempted %d failed %d, want 8 and 0", out.attempted, out.failed)
	}
	m := tr.layerMetrics()
	for _, name := range []string{"persist.restore_s", "persist.snapshot_ms", "query.fanout_ms", "derive.eval_ms_cold", "derive.eval_ms_cached", "index.select_us", "persist.wal_bytes_per_sample"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
}

func TestSmokePaperFigures(t *testing.T) {
	sh := figuresShape{figs: []experiments.StreamSpec{experiments.Fig4, experiments.Fig5},
		sizes: []int{100, 300}, samples: 15, fig11Iters: 10, setups: 1, passesPerSecond: 1}
	out, _ := runSmall(t, figuresWorkload(sh))
	assertClean(t, out)
	if want := 24 + 24 + 2 + 1; out.attempted != want || out.failed != 0 {
		t.Errorf("attempted %d failed %d, want %d and 0", out.attempted, out.failed, want)
	}
}

// A point lost between the shards and the root fails the arrival check;
// a perturbed one fails the root hook's value check.
func TestFleetCheckRejectsDroppedPoint(t *testing.T) {
	pool := &valuePool{Seed: 7, Traces: [][]float64{{1.5, 2.5, 3.5}, {10, 11}, {0.25}}}
	f := &fleetRun{sh: smallFleet, pool: pool, tr: newTracer(false)}
	l := newLedger(smallFleet, pool, f.tr)
	l.hopDrops = func() uint64 { return 0 }
	b := f.agentBatch(l, 1, 0)
	for i := range b.Samples {
		b.Samples[i].Source = agentName(1)
	}
	op := l.open(1, 0, len(b.Samples))
	l.rootAccepted(monitor.Batch{Samples: b.Samples[:5]})
	l.rootAccepted(monitor.Batch{Samples: b.Samples[6:]})
	var out outcome
	checkArrivals(&out, []*fleetOp{op})
	if len(out.problems) != 1 || len(l.problems) != 0 {
		t.Fatalf("dropped point: arrival problems %v, hook problems %v", out.problems, l.problems)
	}

	l = newLedger(smallFleet, pool, f.tr)
	l.hopDrops = func() uint64 { return 0 }
	op = l.open(1, 0, len(b.Samples))
	b.Samples[3].Value += 1e-9
	l.rootAccepted(b)
	out = outcome{}
	checkArrivals(&out, []*fleetOp{op})
	if len(out.problems) != 0 || len(l.problems) != 1 || !strings.Contains(l.problems[0], "value") {
		t.Fatalf("perturbed point: arrival problems %v, hook problems %v", out.problems, l.problems)
	}
}

// A derived node_load that differs from the model's window sum fails
// the rule check.
func TestChurnCheckRejectsPerturbedDerivedValue(t *testing.T) {
	c := &churnRun{sh: smallChurn, seed: 7, tr: newTracer(false), jobLabels: map[int]monitor.Labels{}}
	c.model = newLoadModel(c)
	const r = 5
	check := func(perturb float64) []string {
		store := monitor.NewStore(32)
		for src := 0; src < c.sh.sources; src++ {
			v := c.model.nodeLoad(r, src)
			if src == 1 {
				v += perturb
			}
			store.Append(nodeLoadKey(src), monitor.Point{Time: float64(c.roundTime(r)), Value: v})
		}
		rules, err := alert.ParseRules(alertRules)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := alert.NewEngine(alert.Options{Store: store, StaleAfter: time.Minute}, rules)
		if err != nil {
			t.Fatal(err)
		}
		d := &dashboard{c: c, rc: &churnReceiver{store: store, alert: engine}, out: &outcome{}}
		d.checkRules(r)
		return d.out.problems
	}
	if p := check(0); len(p) != 0 {
		t.Fatalf("exact derived values rejected: %v", p)
	}
	if p := check(0.01); len(p) != 1 || !strings.Contains(p[0], "node_load node01") {
		t.Fatalf("perturbed derived value: %v", p)
	}
}

// Pinned and unpinned STREAM swapped fail the paper checks.
func TestFiguresCheckRejectsSwappedMedians(t *testing.T) {
	box := func(median, iqr float64) stats.Summary {
		return stats.Summary{N: 20, Min: median - iqr, Q1: median - iqr/2, Median: median, Q3: median + iqr/2, Max: median + iqr}
	}
	pinned, unpinned := make([]stats.Summary, 24), make([]stats.Summary, 24)
	for i := range pinned {
		pinned[i] = box(41000, 300)
		unpinned[i] = box(25000, 9000)
	}
	res := &figResults{
		stream: map[string][]stats.Summary{experiments.Fig4.ID: unpinned, experiments.Fig5.ID: pinned},
		fig11:  []experiments.Fig11Point{{Size: 300, WavefrontOneSock: 1348, WavefrontSplit: 726, ThreadedBaseline: 1039}},
		table: []experiments.TableIIRow{
			{Variant: "threaded", VolumeGB: 75, MLUPS: 784, PaperMLUPS: 784},
			{Variant: "threaded (NT)", VolumeGB: 44, MLUPS: 1032, PaperMLUPS: 1032},
			{Variant: "wavefront", VolumeGB: 16.5, MLUPS: 1331, PaperMLUPS: 1331},
		},
	}
	var out outcome
	checkFigures(&out, res)
	if len(out.problems) != 0 {
		t.Fatalf("paper shapes rejected: %v", out.problems)
	}
	res.stream[experiments.Fig4.ID], res.stream[experiments.Fig5.ID] = pinned, unpinned
	out = outcome{}
	checkFigures(&out, res)
	if len(out.problems) == 0 {
		t.Fatal("swapped pinned/unpinned medians passed the paper checks")
	}
}

// The value pool holds the collector's series at every recorded tick,
// is the same for the same seed, and survives its file exactly.
func TestValuePool(t *testing.T) {
	p, err := recordPool(7, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Traces) < 16 {
		t.Fatalf("%d traces, want at least one per hardware thread", len(p.Traces))
	}
	q, err := recordPool(7, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writePool(dir, q); err != nil {
		t.Fatal(err)
	}
	if q, err = readPool(dir); err != nil {
		t.Fatal(err)
	}
	busy := false
	for source := -1; source < 3; source++ {
		for series := 0; series < 300; series++ {
			for tick := 0; tick < 6; tick++ {
				v := p.value(source, series, tick)
				if w := q.value(source, series, tick); v != w {
					t.Fatalf("value(%d, %d, %d) = %v, then %v", source, series, tick, v, w)
				}
				busy = busy || v > 0
			}
		}
	}
	if !busy {
		t.Error("every recorded value is 0")
	}
}

// Throughput and CPU per sample are medians over chunks, so one slow
// chunk of three does not move them; latency quantiles cover every
// operation of the run.
func TestEndToEndOverChunks(t *testing.T) {
	steady := chunk{Samples: 100, Seconds: 1, CPU: 0.5, Latencies: []float64{1, 2, 3, 4, 5}}
	slow := chunk{Samples: 100, Seconds: 3, CPU: 1.5, Latencies: []float64{6, 7, 8, 9, 10}}
	m := endToEnd(&outcome{setupRuns: []float64{3, 1, 2}, chunks: []chunk{steady, slow, steady}, peakMB: 64})
	for name, want := range map[string]float64{"setup_s": 2, "samples_per_s": 100, "latency_p50_ms": 4,
		"latency_p90_ms": 8.6, "cpu_us_per_sample": 5000, "mem_peak_mb": 64} {
		if got := m[name].Value; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
