package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"likwid/internal/alert"
	"likwid/internal/derive"
	"likwid/internal/monitor"
	"likwid/internal/monitor/persist"
	"likwid/internal/telemetry"
)

// churnShape sizes the churn-query workload.  A job is sources ×
// metrics × ids series, written for roundsPerJob rounds of ticks points
// each; every round POSTs one job's full slice (4,096 samples) and one
// round in roundsPerJob starts a new job, creating its series.
type churnShape struct {
	sources, metrics, ids int
	ticks                 int
	roundsPerJob          int
	restoredJobs          int // jobs in the restored state dir
	walJobs               int // the newest restored jobs, present only in the WAL
	retain                int
	tiers                 string
	warmupRounds          int
	jobsPerChunk          int // jobs of one chunk, which a Manager.Snapshot closes
	restores              int // restarts timed for setup_s, one per process
	seriesQueries         int // single-series /query calls per refresh
	chunksPerSecond       float64
}

// churnFull restores 256 jobs × 64 series = 16,384 series, the newest 4
// jobs (256 series) from the WAL alone.  A chunk of 4 jobs took about
// 2 s on the 2-CPU box the rate is calibrated on.  The snapshot that
// closes each chunk allocates on top of a heap whose size depends on
// where the collector's cycle stands, so the process's peak RSS is the
// largest of several such draws: with 4 snapshots a run, 1 run in 8
// missed the high one.
var churnFull = churnShape{
	sources: 16, metrics: 4, ids: 1, ticks: 16, roundsPerJob: 4,
	restoredJobs: 256, walJobs: 4, retain: 32, tiers: "10s:8,1m:8",
	warmupRounds: 4, jobsPerChunk: 4, restores: 3, seriesQueries: 4,
	chunksPerSecond: 0.5,
}

// The dashboard's rules: a per-node roll-up of every job's load, and an
// alert on it.  The generator winds every job down to zero load over the
// last windowTicks points, so a finished job adds nothing to the
// roll-up and the alert follows the running job.
const (
	windowSeconds = 8
	windowTicks   = windowSeconds + 1 // points in [latest-8s, latest] at 1 s spacing
	loadThreshold = 200.0
	loadHold      = 20.0 // seconds the alert condition must hold
	deriveRules   = "node_load = sum(cpu_load, thread) by (source) over 8s\n"
	alertRules    = "hot: avg(*/node_load, node, 8s) > 200 for 20s\n"
)

var churnMetrics = []string{"cpu_load", "mem_bw", "flops_dp", "power"}

func nodeName(s int) string { return fmt.Sprintf("node%02d", s) }
func jobName(j int) string  { return fmt.Sprintf("j%04d", j) }

type churnRun struct {
	sh   churnShape
	seed int64
	tr   *tracer

	jobLabels map[int]monitor.Labels
	model     *loadModel
}

func (c *churnRun) jobTicks() int       { return c.sh.ticks * c.sh.roundsPerJob }
func (c *churnRun) seriesPerJob() int   { return c.sh.sources * c.sh.metrics * c.sh.ids }
func (c *churnRun) roundTime(r int) int { return (r + 1) * c.sh.ticks } // time of round r's last point

// value is the generator: point k (0-based within its job) of one
// series.  cpu_load runs at a per-job, per-node level and drops to zero
// for the job's last windowTicks points; a node's levels sum to at most
// 400, so about half the nodes of a job cross the alert's threshold.
func (c *churnRun) value(job, src, m, id, k int) float64 {
	if m == 0 {
		if k >= c.jobTicks()-windowTicks {
			return 0
		}
		level := 400 / float64(c.sh.ids) * unit(c.seed, 1, job, src)
		return level * (0.9 + 0.2*unit(c.seed, 2, job, src, id, k))
	}
	return 1000 * unit(c.seed, 3+m, job, src, id, k)
}

func (c *churnRun) labels(job int) monitor.Labels {
	if ls, ok := c.jobLabels[job]; ok {
		return ls
	}
	ls, err := monitor.MakeLabels(map[string]string{"job": jobName(job)})
	if err != nil {
		panic(err) // generated names are valid label values
	}
	c.jobLabels[job] = ls
	return ls
}

func (c *churnRun) key(job, src, m, id int) monitor.Key {
	return monitor.Key{Source: nodeName(src), Metric: churnMetrics[m], Scope: monitor.ScopeThread, ID: id, Labels: c.labels(job)}
}

// roundSamples generates global round r: the running job's series,
// ticks points each, series-major.
func (c *churnRun) roundSamples(r int) []monitor.Sample {
	job, q := r/c.sh.roundsPerJob, r%c.sh.roundsPerJob
	out := make([]monitor.Sample, 0, c.seriesPerJob()*c.sh.ticks)
	for src := 0; src < c.sh.sources; src++ {
		for m := 0; m < c.sh.metrics; m++ {
			for id := 0; id < c.sh.ids; id++ {
				k := c.key(job, src, m, id)
				for t := 0; t < c.sh.ticks; t++ {
					kk := q*c.sh.ticks + t
					out = append(out, monitor.Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope,
						ID: id, Labels: k.Labels, Time: float64(r*c.sh.ticks + t + 1), Value: c.value(job, src, m, id, kk)})
				}
			}
		}
	}
	return out
}

// roundPayload encodes round r as the gzipped JSON-lines wire.
func (c *churnRun) roundPayload(r int) ([]byte, error) {
	samples := c.roundSamples(r)
	recs := make([]wireSample, len(samples))
	job := jobName(r / c.sh.roundsPerJob)
	for i, s := range samples {
		recs[i] = wireSample{Time: s.Time, Collector: "perfctr", Source: s.Source,
			Labels: map[string]string{"job": job}, Metric: s.Metric, Scope: "thread", ID: s.ID, Value: s.Value}
	}
	return gzipJSONLines(recs)
}

// loadModel predicts the dashboard rules' outputs from the generator:
// node_load per source per round and the alert state machine over it.
type loadModel struct {
	c       *churnRun
	since   map[int]float64 // source → pending-since time (present while the condition holds)
	firing  map[int]bool
	history map[int][]monitor.Point // source → alert transitions (1 firing, 0 resolved)
}

func newLoadModel(c *churnRun) *loadModel {
	return &loadModel{c: c, since: map[int]float64{}, firing: map[int]bool{}, history: map[int][]monitor.Point{}}
}

// nodeLoad is node_load for one source after round r: the running job's
// cpu_load series' window means summed (finished jobs contribute zero).
func (m *loadModel) nodeLoad(r, src int) float64 {
	c := m.c
	job, q := r/c.sh.roundsPerJob, r%c.sh.roundsPerJob
	last := q*c.sh.ticks + c.sh.ticks - 1
	var total float64
	for id := 0; id < c.sh.ids; id++ {
		var s float64
		for k := last - windowSeconds; k <= last; k++ {
			s += c.value(job, src, 0, id, k)
		}
		total += s / windowTicks
	}
	return total
}

// advance runs the alert state machine for round r's evaluation.
func (m *loadModel) advance(r int) {
	now := float64(m.c.roundTime(r))
	for src := 0; src < m.c.sh.sources; src++ {
		if m.nodeLoad(r, src) > loadThreshold {
			since, pending := m.since[src]
			if !pending {
				since = now
				m.since[src] = now
			}
			if !m.firing[src] && now-since >= loadHold {
				m.firing[src] = true
				m.history[src] = append(m.history[src], monitor.Point{Time: now, Value: 1})
			}
			continue
		}
		delete(m.since, src)
		if m.firing[src] {
			m.firing[src] = false
			m.history[src] = append(m.history[src], monitor.Point{Time: now, Value: 0})
		}
	}
}

func (m *loadModel) firingSet() []string {
	var out []string
	for src := 0; src < m.c.sh.sources; src++ {
		if m.firing[src] {
			out = append(out, nodeName(src))
		}
	}
	return out
}

func nodeLoadKey(src int) monitor.Key {
	return monitor.Key{Source: nodeName(src), Metric: "node_load", Scope: monitor.ScopeNode}
}

func hotHistoryKey(src int) monitor.Key {
	return monitor.Key{Source: nodeName(src), Metric: "alert/hot", Scope: monitor.ScopeNode}
}

// persistOptions are the receiver's -wal options: no background
// snapshots during a run, so snapshots happen only at fixed rounds.
func persistOptions(reg *telemetry.Registry) persist.Options {
	return persist.Options{SnapshotInterval: time.Hour, Registry: reg}
}

func (c *churnRun) newStore() (*monitor.Store, error) {
	tiers, err := monitor.ParseTiers(c.sh.tiers)
	if err != nil {
		return nil, err
	}
	return monitor.NewStore(c.sh.retain, tiers...), nil
}

// buildState writes the restored state dir: a receiver that ran the
// dashboard rules over restoredJobs jobs, the last walJobs of them
// journaled after its last snapshot.  Untimed.
func (c *churnRun) buildState(stateDir, scratch string) error {
	store, err := c.newStore()
	if err != nil {
		return err
	}
	bulk := c.sh.restoredJobs - c.sh.walJobs
	for r := 0; r < bulk*c.sh.roundsPerJob; r++ {
		store.AppendBatch(monitor.Batch{Collector: "perfctr", Samples: c.roundSamples(r)})
	}
	// What the rules left behind: node_load per round, and the alert
	// history of every node (opened with a resolved point, so each
	// history series exists before the benchmark runs).
	for src := 0; src < c.sh.sources; src++ {
		store.SetCompaction(hotHistoryKey(src), monitor.CompactLast)
		store.Append(hotHistoryKey(src), monitor.Point{Time: 0.5, Value: 0})
	}
	for r := 0; r < c.sh.restoredJobs*c.sh.roundsPerJob; r++ {
		for src := 0; src < c.sh.sources; src++ {
			store.Append(nodeLoadKey(src), monitor.Point{Time: float64(c.roundTime(r)), Value: c.model.nodeLoad(r, src)})
		}
		c.model.advance(r)
	}
	for src, pts := range c.model.history {
		for _, p := range pts {
			store.Append(hotHistoryKey(src), p)
		}
	}
	reg := telemetry.New()
	pm, err := persist.Open(scratch, store, persistOptions(reg))
	if err != nil {
		return err
	}
	defer pm.Close()
	if err := pm.Snapshot(); err != nil {
		return err
	}
	journaled := 0
	for r := bulk * c.sh.roundsPerJob; r < c.sh.restoredJobs*c.sh.roundsPerJob; r++ {
		b := monitor.Batch{Collector: "perfctr", Samples: c.roundSamples(r)}
		store.AppendBatch(b)
		journaled += len(b.Samples)
		if err := waitWAL(reg, journaled); err != nil {
			return err
		}
	}
	return copyDir(scratch, stateDir)
}

// waitWAL waits until the WAL writer has written n records, failing if
// it dropped any: the state dir must hold exactly what was appended.
func waitWAL(reg *telemetry.Registry, n int) error {
	deadline := time.Now().Add(opTimeout)
	for {
		written, dropped := walCounters(reg)
		if dropped > 0 {
			return fmt.Errorf("building state: the WAL dropped %d records", int(dropped))
		}
		if int(written) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("building state: the WAL wrote %d of %d records", int(written), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func walCounters(reg *telemetry.Registry) (written, dropped float64) {
	for _, m := range reg.Snapshot().Metrics {
		switch m.Name {
		case "likwid_wal_records_total":
			written = m.Value
		case "likwid_wal_dropped_total":
			dropped = m.Value
		}
	}
	return written, dropped
}

// waitWALIdle waits until the WAL writer has stopped writing: its
// record count holds still over several polls.
func waitWALIdle(reg *telemetry.Registry) {
	last, still := -1.0, 0
	for deadline := time.Now().Add(opTimeout); still < 5 && time.Now().Before(deadline); {
		written, _ := walCounters(reg)
		if written == last {
			still++
		} else {
			last, still = written, 0
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// copyDir copies the regular files of src into dst (created).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// churnReceiver is the restored receiver: store, durability, HTTP sink
// and the dashboard's rule engines.
type churnReceiver struct {
	store  *monitor.Store
	reg    *telemetry.Registry
	pm     *persist.Manager
	h      *monitor.HTTPSink
	derive *derive.Engine
	alert  *alert.Engine
	dir    string
}

// restore is the receiver restart: snapshot restore and WAL replay into
// a fresh store.
func (c *churnRun) restore(dir string) (*churnReceiver, time.Duration, error) {
	store, err := c.newStore()
	if err != nil {
		return nil, 0, err
	}
	reg := telemetry.New()
	store.Instrument(reg)
	start := time.Now()
	pm, err := persist.Open(dir, store, persistOptions(reg))
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	c.tr.span("persist.restore", 0, start)
	return &churnReceiver{store: store, reg: reg, pm: pm, dir: dir}, took, nil
}

// serve brings the restored receiver up: HTTP sink and rule engines,
// evaluated synchronously by the dashboard instead of on their cadence.
func (rc *churnReceiver) serve() error {
	var err error
	if rc.h, err = monitor.NewHTTPSink("127.0.0.1:0", rc.store); err != nil {
		return err
	}
	rc.h.Instrument(rc.reg)
	rules, _, err := derive.ParseFile(deriveRules)
	if err != nil {
		return err
	}
	if rc.derive, err = derive.NewEngine(derive.Options{Store: rc.store, Telemetry: rc.reg}, rules); err != nil {
		return err
	}
	arules, err := alert.ParseRules(alertRules)
	if err != nil {
		return err
	}
	rc.alert, err = alert.NewEngine(alert.Options{Store: rc.store, StaleAfter: 5 * time.Minute, Telemetry: rc.reg}, arules)
	return err
}

func (rc *churnReceiver) close() error {
	if rc.h != nil {
		_ = rc.h.Close()
	}
	return rc.pm.Close()
}

// churnWorkload is the churn-query workload.  A build stage writes the
// restored state dir; every later stage restarts a receiver from a copy
// of it, in a fresh process, and times the restart.
func churnWorkload(sh churnShape) workload {
	return workload{
		stages: append([]string{"build"}, setupStages(sh.restores)...),
		stage: func(cfg config, tr *tracer, name string) (*outcome, error) {
			return churnStage(cfg, tr, sh, name)
		},
	}
}

func churnStage(cfg config, tr *tracer, sh churnShape, stage string) (*outcome, error) {
	c := &churnRun{sh: sh, seed: cfg.seed, tr: tr, jobLabels: map[int]monitor.Labels{}}
	c.model = newLoadModel(c)
	stateDir := filepath.Join(cfg.workDir, "state")
	switch stage {
	case "build":
		return &outcome{}, c.buildState(stateDir, filepath.Join(cfg.workDir, "build"))
	case "setup", "run":
	default:
		return nil, fmt.Errorf("unknown stage %q", stage)
	}
	chunks, chunkRounds := scaled(cfg.seconds, sh.chunksPerSecond), sh.jobsPerChunk*sh.roundsPerJob
	rounds := chunks * chunkRounds
	first := sh.restoredJobs * sh.roundsPerJob // first round after the restored history
	// Inputs of every round, encoded before the restart.
	payloads := map[int][]byte{}
	for r := first; stage == "run" && r < first+sh.warmupRounds+rounds; r++ {
		p, err := c.roundPayload(r)
		if err != nil {
			return nil, err
		}
		payloads[r] = p
	}

	// Set-up: the restart.  The restarted engines keep no alert state;
	// neither does the model.
	dir, err := os.MkdirTemp(cfg.workDir, stage+"-")
	if err != nil {
		return nil, err
	}
	if err := copyDir(stateDir, dir); err != nil {
		return nil, err
	}
	rc, took, err := c.restore(dir)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	out := &outcome{setupRuns: []float64{took.Seconds()}}
	if stage == "setup" {
		return out, nil
	}
	if err := rc.serve(); err != nil {
		return nil, err
	}
	c.checkRestored(out, rc.store)

	d := &dashboard{c: c, rc: rc, out: out, client: &http.Client{Transport: newTimedTransport(tr), Timeout: 30 * time.Second}}
	d.rt = d.client.Transport.(*timedTransport)
	defer d.rt.closeIdle()
	for r := first; r < first+sh.warmupRounds; r++ {
		if _, _, err := d.round(r, payloads[r], false); err != nil {
			return nil, err
		}
	}
	walBase := -1.0 // WAL records written by the previous timed snapshot
	for i := 0; i < chunks; i++ {
		t := startChunk()
		var busy time.Duration
		latencies := make([]float64, 0, chunkRounds)
		for j := 0; j < chunkRounds; j++ {
			r := first + sh.warmupRounds + i*chunkRounds + j
			took, latency, err := d.round(r, payloads[r], true)
			if err != nil {
				return nil, err
			}
			busy += took
			latencies = append(latencies, latency)
			out.attempted++
		}
		// A snapshot closes the chunk.
		if tr.on {
			// The journal since the previous snapshot, about to be
			// truncated, per record written to it.  The first
			// snapshot's journal also holds the restored records.
			waitWALIdle(rc.reg)
			written, _ := walCounters(rc.reg)
			if st, err := os.Stat(filepath.Join(rc.dir, "wal.log")); err == nil && walBase >= 0 && written > walBase {
				tr.observe("persist.wal_bytes_per_sample", float64(st.Size())/(written-walBase))
			}
			walBase = written
		}
		start := time.Now()
		if err := rc.pm.Snapshot(); err != nil {
			return nil, err
		}
		busy += time.Since(start)
		tr.span("persist.snapshot", 0, start)
		ch := t.stop(chunkRounds*c.seriesPerJob()*sh.ticks, latencies)
		ch.Seconds = busy.Seconds()
		out.chunks = append(out.chunks, ch)
	}
	out.peakMB = peakRSSMB()
	lost, err := c.checkRecovery(out, rc, filepath.Join(cfg.workDir, "crash"), first+sh.warmupRounds, first+sh.warmupRounds+rounds)
	if err != nil {
		return nil, err
	}
	out.failed = lost
	return out, nil
}

// checkRestored compares every restored series' raw ring with the
// generator.
func (c *churnRun) checkRestored(out *outcome, st *monitor.Store) {
	jt := c.jobTicks()
	keep := min(c.sh.retain, jt)
	var buf []monitor.Point
	for job := 0; job < c.sh.restoredJobs; job++ {
		for src := 0; src < c.sh.sources; src++ {
			for m := 0; m < c.sh.metrics; m++ {
				for id := 0; id < c.sh.ids; id++ {
					k := c.key(job, src, m, id)
					first := jt - keep
					buf = st.WindowInto(k, float64(job*jt+first+1), -1, buf)
					if !c.pointsMatch(buf, job, src, m, id, first, keep) {
						out.problem("restore: %s/%s %s id %d differs from the generated points", k.Source, k.Metric, jobName(job), id)
					}
				}
			}
		}
	}
}

// pointsMatch reports whether pts are exactly the generated points
// first..first+n-1 (within the job) of one series.
func (c *churnRun) pointsMatch(pts []monitor.Point, job, src, m, id, first, n int) bool {
	if len(pts) != n {
		return false
	}
	jt := c.jobTicks()
	for i, p := range pts {
		k := first + i
		if p.Time != float64(job*jt+k+1) || p.Value != c.value(job, src, m, id, k) {
			return false
		}
	}
	return true
}

// dashboard is the client side of churn-query: the producer POSTing
// each round and the dashboard refreshing after it.
type dashboard struct {
	c      *churnRun
	rc     *churnReceiver
	out    *outcome
	client *http.Client
	rt     *timedTransport

	deriveGen, alertGen uint64 // index generation at each engine's last evaluation
}

// round POSTs round r and refreshes the dashboard once.  The refresh is
// the operation, latency its time in ms; busy is the POST plus the
// refresh, the time the receiver worked for the round.  Output checks
// run after, untimed.
func (d *dashboard) round(r int, payload []byte, timed bool) (busy time.Duration, latency float64, err error) {
	c := d.c
	job, q := r/c.sh.roundsPerJob, r%c.sh.roundsPerJob
	kind := "ingest.post.known"
	if q == 0 {
		kind = "ingest.post.new"
	}
	op := d.c.tr.id()
	d.rt.begin(op, kind)
	postStart := time.Now()
	if err := postIngest(d.client, "http://"+d.rc.h.Addr()+"/ingest", payload); err != nil {
		return 0, 0, fmt.Errorf("round %d: %w", r, err)
	}
	post := time.Since(postStart)
	if q == 0 && timed {
		c.tr.observe("ingest.cold_series_us", float64(post.Microseconds())/float64(c.seriesPerJob()))
	}

	start := time.Now()
	fanID := r % c.sh.ids
	from := float64(r*c.sh.ticks + 1)
	fan, err := d.get(op, "query.fanout", url.Values{
		"metric": {"*"}, "source": {"*"}, "label.job": {jobName(job)},
		"scope": {"thread"}, "id": {strconv.Itoa(fanID)}, "from": {strconv.FormatFloat(from, 'f', -1, 64)},
	})
	if err != nil {
		return 0, 0, err
	}
	seriesFrom := float64(c.roundTime(r - 2))
	series := make([][]byte, c.sh.seriesQueries)
	for i := range series {
		src := (r + i*5) % c.sh.sources
		if series[i], err = d.get(op, "query.series", url.Values{
			"source": {nodeName(src)}, "metric": {"node_load"}, "scope": {"node"}, "id": {"0"},
			"from": {strconv.FormatFloat(seriesFrom, 'f', -1, 64)},
		}); err != nil {
			return 0, 0, err
		}
	}
	d.deriveGen = d.eval(op, "derive.eval", d.deriveGen, d.rc.derive.EvalNow)
	d.alertGen = d.eval(op, "alert.eval", d.alertGen, d.rc.alert.EvalNow)
	end := time.Now()
	if timed {
		c.tr.spanWithID(op, "op.refresh", 0, start, end)
	}

	c.model.advance(r)
	d.checkFanout(fan, r, job, fanID)
	for i, body := range series {
		d.checkSeries(body, (r+i*5)%c.sh.sources, r)
	}
	d.checkRules(r)
	return post + end.Sub(start), float64(end.Sub(start)) / 1e6, nil
}

// get runs one /query and records its span and response size.
func (d *dashboard) get(op int64, span string, q url.Values) ([]byte, error) {
	start := time.Now()
	body, err := getBody(d.client, "http://"+d.rc.h.Addr()+"/query?"+q.Encode())
	d.c.tr.span(span, op, start)
	if err == nil && span == "query.fanout" {
		d.c.tr.observe("query.response_bytes", float64(len(body)))
	}
	return body, err
}

// eval runs one engine evaluation, classed cached or cold by whether the
// store's index generation moved since the engine's previous one.
func (d *dashboard) eval(op int64, name string, lastGen uint64, evalNow func()) uint64 {
	gen := d.rc.store.IndexGen()
	class := ".cached"
	if gen != lastGen {
		class = ".cold"
	}
	start := time.Now()
	evalNow()
	d.c.tr.span(name+class, op, start)
	return gen
}

type querySeries struct {
	Source string            `json:"source"`
	Metric string            `json:"metric"`
	ID     int               `json:"id"`
	Labels map[string]string `json:"labels"`
	Points []monitor.Point   `json:"points"`
}

// checkFanout compares the wildcard fan-out with the generated round
// and with a direct read of the store (Store.Select + WindowInto).
func (d *dashboard) checkFanout(body []byte, r, job, id int) {
	c := d.c
	var resp struct {
		Series []querySeries `json:"series"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		d.out.problem("round %d fan-out: %v", r, err)
		return
	}
	if want := c.sh.sources * c.sh.metrics; len(resp.Series) != want {
		d.out.problem("round %d fan-out: %d series, want %d", r, len(resp.Series), want)
	}
	metricIdx := map[string]int{}
	for i, m := range churnMetrics {
		metricIdx[m] = i
	}
	q := r % c.sh.roundsPerJob
	seen := map[[2]int]bool{}
	for _, s := range resp.Series {
		var src int
		m, ok := metricIdx[s.Metric]
		if _, err := fmt.Sscanf(s.Source, "node%d", &src); err != nil || !ok || s.ID != id || s.Labels["job"] != jobName(job) || seen[[2]int{src, m}] {
			d.out.problem("round %d fan-out: unexpected series %s/%s id %d %v", r, s.Source, s.Metric, s.ID, s.Labels)
			continue
		}
		seen[[2]int{src, m}] = true
		if !c.pointsMatch(s.Points, job, src, m, id, q*c.sh.ticks, c.sh.ticks) {
			d.out.problem("round %d fan-out: %s/%s points differ from the generated round", r, s.Source, s.Metric)
		}
	}
	// The same read straight from the store.
	start := time.Now()
	keys := d.rc.store.Select(monitor.Selector{Source: "*", Metric: "*", QueryForm: true,
		Labels: []monitor.Label{{Name: "job", Value: jobName(job)}}, Scope: monitor.ScopeThread, ID: id})
	c.tr.span("index.select", 0, start)
	if len(keys) != len(resp.Series) {
		d.out.problem("round %d: Store.Select found %d series, /query %d", r, len(keys), len(resp.Series))
		return
	}
	var buf []monitor.Point
	for i, k := range keys {
		start := time.Now()
		buf = d.rc.store.WindowInto(k, float64(r*c.sh.ticks+1), -1, buf)
		c.tr.span("store.window", 0, start)
		if s := resp.Series[i]; s.Source != k.Source || s.Metric != k.Metric || !samePoints(s.Points, buf) {
			d.out.problem("round %d: /query series %d differs from the store's window", r, i)
		}
	}
}

func samePoints(a, b []monitor.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSeries compares one single-series node_load /query with the
// model's values of the two rounds before r.
func (d *dashboard) checkSeries(body []byte, src, r int) {
	var resp querySeries
	if err := json.Unmarshal(body, &resp); err != nil {
		d.out.problem("round %d node_load query: %v", r, err)
		return
	}
	want := []monitor.Point{
		{Time: float64(d.c.roundTime(r - 2)), Value: d.c.model.nodeLoad(r-2, src)},
		{Time: float64(d.c.roundTime(r - 1)), Value: d.c.model.nodeLoad(r-1, src)},
	}
	if len(resp.Points) != len(want) {
		d.out.problem("round %d node_load %s: %d points, want %d", r, nodeName(src), len(resp.Points), len(want))
		return
	}
	for i, p := range resp.Points {
		if p.Time != want[i].Time || !near(p.Value, want[i].Value) {
			d.out.problem("round %d node_load %s: point (%v, %v), model (%v, %v)", r, nodeName(src), p.Time, p.Value, want[i].Time, want[i].Value)
		}
	}
}

// near compares a rule output with the model's value: the engine sums
// members in store order, the model in generator order.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// checkRules compares the derived outputs and the firing alerts after
// round r with the model.
func (d *dashboard) checkRules(r int) {
	c := d.c
	for src := 0; src < c.sh.sources; src++ {
		p, ok := d.rc.store.Latest(nodeLoadKey(src))
		want := c.model.nodeLoad(r, src)
		if !ok || p.Time != float64(c.roundTime(r)) || !near(p.Value, want) {
			d.out.problem("round %d: node_load %s = (%v, %v), model (%v, %v)", r, nodeName(src), p.Time, p.Value, c.roundTime(r), want)
		}
	}
	var firing []string
	for _, a := range d.rc.alert.Alerts() {
		if a.State == alert.StateFiring.String() {
			firing = append(firing, a.Source)
		}
	}
	sort.Strings(firing)
	if want := c.model.firingSet(); fmt.Sprint(firing) != fmt.Sprint(want) {
		d.out.problem("round %d: firing %v, model %v", r, firing, want)
	}
}

// checkRecovery restarts into a fresh store from a copy of the live
// state dir, as after a crash once the WAL writer went idle, and counts
// the timed rounds whose acknowledged samples, still in raw retention,
// did not come back.
func (c *churnRun) checkRecovery(out *outcome, rc *churnReceiver, dir string, from, to int) (int, error) {
	waitWALIdle(rc.reg)
	if err := copyDir(rc.dir, dir); err != nil {
		return 0, err
	}
	got, _, err := c.restore(dir)
	if err != nil {
		return 0, err
	}
	defer got.pm.Close()
	lost := map[int]bool{}
	jt := c.jobTicks()
	var buf []monitor.Point
	for job := from / c.sh.roundsPerJob; job*c.sh.roundsPerJob < to; job++ {
		// Ticks of this job written by the end of the run.
		written := min(jt, (to-job*c.sh.roundsPerJob)*c.sh.ticks)
		keep := min(written, c.sh.retain)
		first := written - keep
		for src := 0; src < c.sh.sources; src++ {
			for m := 0; m < c.sh.metrics; m++ {
				for id := 0; id < c.sh.ids; id++ {
					buf = got.store.WindowInto(c.key(job, src, m, id), float64(job*jt+first+1), -1, buf)
					if c.pointsMatch(buf, job, src, m, id, first, keep) {
						continue
					}
					have := map[float64]float64{}
					for _, p := range buf {
						have[p.Time] = p.Value
					}
					for k := first; k < written; k++ {
						t := job*jt + k + 1
						if v, ok := have[float64(t)]; !ok || v != c.value(job, src, m, id, k) {
							if round := (t - 1) / c.sh.ticks; round >= from && round < to {
								lost[round] = true
							}
						}
					}
				}
			}
		}
	}
	return len(lost), nil
}
