package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/monitor/cluster"
	"likwid/internal/telemetry"
)

// fleetShape sizes the fleet-push workload: agents × series series,
// each agent flush carrying ticks points per series, plus one backfill
// POST per round from a non-agent producer.
type fleetShape struct {
	agents          int
	series          int // per agent; a multiple of idsPerMetric
	ticks           int // points per series per flush
	backfillSeries  int // backfill POST: backfillSeries × ticks samples
	retain          int // raw points per series at every receiver
	setups          int // cold rounds timed for setup_s, one per process
	poolNodes       int // simulated nodes the value pool is recorded on
	poolTicks       int // collector ticks recorded per node
	roundsPerSecond float64
}

// fleetFull is the benchmark's fleet: 32 agents × 256 series = 8,192
// series, 4,096-sample flushes, an 8,192-sample backfill.  A timed round
// took about 0.5 s on the 2-CPU box the rate is calibrated on.
var fleetFull = fleetShape{
	agents: 32, series: 256, ticks: 16, backfillSeries: 512,
	retain: 256, setups: 3, poolNodes: 2, poolTicks: 32, roundsPerSecond: 2,
}

const (
	idsPerMetric   = 16
	backfillSource = -1 // source coordinate of the backfill producer
	flightDepth    = 2  // agent flushes in flight in the closed loop
	opTimeout      = 60 * time.Second
)

func agentName(a int) string { return fmt.Sprintf("agent%02d", a) }

// fleetOp is one operation of the closed loop: an agent flush, or the
// backfill POST.  Its samples are accounted for at the root, sample by
// sample, by the root's accept hook.
type fleetOp struct {
	source, round int
	expected      int
	arrived       int
	dropped       int      // hop drops attributed to this op
	seen          []uint64 // bitset over series × ticks: exactly-once check
	start, end    time.Time
	done          bool
	failed        bool // the Write or POST itself returned an error
	id            int64
}

// ledger is the benchmark's view of the root: which op every arriving
// sample belongs to, whether it is new and carries the generator's
// value, and when each op is covered by root arrivals plus counted hop
// drops.
type ledger struct {
	sh   fleetShape
	pool *valuePool
	tr   *tracer

	mu        sync.Mutex
	ops       map[[2]int]*fleetOp
	inflight  []*fleetOp
	hopDrops  func() uint64 // samples the forward hops dropped, counted
	dropsUsed uint64
	problems  []string
	notify    chan struct{} // "something arrived"; capacity 1, never blocks the hook

	sources  map[string]int
	metrics  map[string]int
	labels   []monitor.Labels
	shardAt  map[hopKey]time.Time // shard accept times, traced runs only
	hopDrop  [2]uint64            // samples the shards' forward Publish rejected
	arrivals int                  // samples accepted at the root, all ops
}

// hopKey identifies a forwarded batch by its first sample.
type hopKey struct {
	source, metric string
	id             int
	time           float64
}

func newLedger(sh fleetShape, pool *valuePool, tr *tracer) *ledger {
	l := &ledger{
		sh: sh, pool: pool, tr: tr,
		ops:     map[[2]int]*fleetOp{},
		notify:  make(chan struct{}, 1),
		sources: map[string]int{"backfill": backfillSource},
		metrics: map[string]int{},
		shardAt: map[hopKey]time.Time{},
	}
	for a := 0; a < sh.agents; a++ {
		l.sources[agentName(a)] = a
		ls, err := monitor.MakeLabels(map[string]string{"rack": fmt.Sprintf("r%d", a%4)})
		if err != nil {
			panic(err) // constant, valid label set
		}
		l.labels = append(l.labels, ls)
	}
	for m := 0; m*idsPerMetric < max(sh.series, sh.backfillSeries); m++ {
		l.metrics[fmt.Sprintf("m%02d", m)] = m
		l.metrics[fmt.Sprintf("bf%02d", m)] = m
	}
	return l
}

func (l *ledger) problem(format string, args ...any) {
	if len(l.problems) < 100 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// open registers an op before its samples are sent.
func (l *ledger) open(source, round, expected int) *fleetOp {
	op := &fleetOp{source: source, round: round, expected: expected,
		seen: make([]uint64, (expected+63)/64), id: l.tr.id()}
	l.mu.Lock()
	l.ops[[2]int{source, round}] = op
	l.inflight = append(l.inflight, op)
	l.mu.Unlock()
	return op
}

// shardAccepted is the shards' forward hook: it notes when a batch was
// accepted (traced runs) and hands it to the forward dispatcher,
// counting the samples of a batch the dispatcher's queue rejects.
func (l *ledger) shardAccepted(shard int, d *monitor.Dispatcher, b monitor.Batch) {
	if l.tr.on && len(b.Samples) > 0 {
		s := b.Samples[0]
		l.mu.Lock()
		l.shardAt[hopKey{s.Source, s.Metric, s.ID, s.Time}] = time.Now()
		l.mu.Unlock()
	}
	if !d.Publish(b) {
		l.mu.Lock()
		l.hopDrop[shard] += uint64(len(b.Samples))
		l.mu.Unlock()
	}
}

// rootAccepted is the root's accept hook: every sample is matched to
// its op, checked for duplicates and for the generator's value, and
// ops whose samples are all accounted for complete at this instant.
func (l *ledger) rootAccepted(b monitor.Batch) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	var (
		op      *fleetOp
		opKey   [2]int
		haveKey bool
	)
	for _, s := range b.Samples {
		src, ok := l.sources[s.Source]
		tick := int(s.Time) - 1
		if !ok || tick < 0 || float64(tick+1) != s.Time {
			l.problem("root: unexpected sample %s/%s id %d t=%v", s.Source, s.Metric, s.ID, s.Time)
			continue
		}
		key := [2]int{src, tick / l.sh.ticks}
		if !haveKey || key != opKey {
			op, opKey, haveKey = l.ops[key], key, true
		}
		if op == nil {
			l.problem("root: sample of no open operation: %s round %d", s.Source, key[1])
			continue
		}
		series := l.metrics[s.Metric]*idsPerMetric + s.ID
		bit := series*l.sh.ticks + tick%l.sh.ticks
		if bit >= op.expected {
			l.problem("root: %s/%s id %d is no series of the generator", s.Source, s.Metric, s.ID)
			continue
		}
		if op.seen[bit/64]&(1<<(bit%64)) != 0 {
			l.problem("root: duplicate sample %s/%s id %d t=%v", s.Source, s.Metric, s.ID, s.Time)
			continue
		}
		op.seen[bit/64] |= 1 << (bit % 64)
		op.arrived++
		l.arrivals++
		if want := l.pool.value(src, series, tick); s.Value != want {
			l.problem("root: %s/%s id %d t=%v value %v, generated %v", s.Source, s.Metric, s.ID, s.Time, s.Value, want)
		}
		if src != backfillSource && s.Labels != l.labels[src] {
			l.problem("root: %s/%s id %d carries labels %v", s.Source, s.Metric, s.ID, s.Labels)
		}
	}
	if l.tr.on && len(b.Samples) > 0 {
		s := b.Samples[0]
		k := hopKey{s.Source, s.Metric, s.ID, s.Time}
		if at, ok := l.shardAt[k]; ok {
			delete(l.shardAt, k)
			var parent int64
			if op != nil {
				parent = op.id
			}
			l.tr.spanWithID(l.tr.id(), "forward.hop", parent, at, now)
		}
	}
	l.completeLocked(now)
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// drops is every sample the forward hops have dropped so far: the
// cluster sinks' buffer evictions plus rejected dispatcher publishes.
func (l *ledger) dropsLocked() uint64 {
	return l.hopDrops() + l.hopDrop[0] + l.hopDrop[1]
}

// completeLocked completes every in-flight op that its root arrivals
// cover, and — oldest first — every op that arrivals plus not yet
// attributed hop drops cover.  Attributing drops instead of waiting for
// the missing samples keeps the loop finite while the forward hop loses
// data, and exact once it stops.
func (l *ledger) completeLocked(now time.Time) {
	kept := l.inflight[:0]
	for _, op := range l.inflight {
		if missing := op.expected - op.arrived; missing > 0 {
			if free := l.dropsLocked() - l.dropsUsed; free < uint64(missing) {
				kept = append(kept, op)
				continue
			}
			op.dropped = missing
			l.dropsUsed += uint64(missing)
		}
		op.done, op.end = true, now
	}
	clear(l.inflight[len(kept):])
	l.inflight = kept
}

// wait blocks until op completes: woken by root arrivals, polling for
// drops that arrive without any root traffic.
func (l *ledger) wait(op *fleetOp) error {
	deadline := time.Now().Add(opTimeout)
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		l.mu.Lock()
		l.completeLocked(time.Now())
		done := op.done
		l.mu.Unlock()
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s round %d: %d of %d samples reached the root within %v",
				sourceName(op.source), op.round, op.arrived, op.expected, opTimeout)
		}
		select {
		case <-l.notify:
		case <-poll.C:
		}
	}
}

// inflightCount is the number of ops not yet complete.
func (l *ledger) inflightCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.inflight)
}

func (l *ledger) oldest() *fleetOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.inflight) == 0 {
		return nil
	}
	return l.inflight[0]
}

func sourceName(src int) string {
	if src == backfillSource {
		return "backfill"
	}
	return agentName(src)
}

// fleetNet is one agent → 2 shards → root topology, wired in-process
// over loopback HTTP from the constructors the shipped receiver uses.
type fleetNet struct {
	root        *monitor.HTTPSink
	rootStore   *monitor.Store
	shards      []*monitor.HTTPSink
	shardStores []*monitor.Store
	forwards    []*cluster.Sink
	dispatch    []*monitor.Dispatcher
	agents      []*cluster.Sink
	client      *http.Client // the load generator's client: at most one connection per shard
	rt          *timedTransport
	probes      *http.Transport // the agents' health probes, apart from the load's connections
	cancel      context.CancelFunc
}

// resolvingDialer dials the addresses names maps, and any other address
// as given.
func resolvingDialer(names map[string]string) func(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := names[addr]; ok {
			addr = real
		}
		return d.DialContext(ctx, network, addr)
	}
}

// receiver builds one receiver the way likwid-agent -receiver does:
// store, instrumented HTTP sink, telemetry registry.
func receiver(retain int) (*monitor.HTTPSink, *monitor.Store, error) {
	reg := telemetry.New()
	store := monitor.NewStore(retain)
	store.Instrument(reg)
	h, err := monitor.NewHTTPSink("127.0.0.1:0", store)
	if err != nil {
		return nil, nil, err
	}
	h.Instrument(reg)
	return h, store, nil
}

func ingestURL(h *monitor.HTTPSink) string { return "http://" + h.Addr() + "/ingest" }

func buildFleet(sh fleetShape, l *ledger, tr *tracer) (*fleetNet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	n := &fleetNet{cancel: cancel, rt: newTimedTransport(tr)}
	n.client = &http.Client{Transport: n.rt, Timeout: 30 * time.Second}
	var err error
	if n.root, n.rootStore, err = receiver(sh.retain); err != nil {
		n.close()
		return nil, err
	}
	n.root.SetForward(l.rootAccepted)
	// The agents address the shards by fixed host names, as a fleet's
	// agents address its receivers.  The ring hashes these names, so
	// every run places each series on the same shard; the clients'
	// dialer resolves them to the loopback listeners.
	var shardURLs []string
	shardAddrs := map[string]string{}
	for i := 0; i < 2; i++ {
		h, store, err := receiver(sh.retain)
		if err != nil {
			n.close()
			return nil, err
		}
		n.shards = append(n.shards, h)
		n.shardStores = append(n.shardStores, store)
		name := fmt.Sprintf("shard%d:8091", i)
		shardAddrs[name] = h.Addr()
		shardURLs = append(shardURLs, "http://"+name+"/ingest")
		// -forward pushv4:failover@ROOT, exactly as runReceiver wires it.
		fwd, err := cluster.New(cluster.Options{
			Targets:      []string{ingestURL(n.root)},
			Policy:       cluster.PolicyFailover,
			Format:       monitor.WireV4,
			Source:       monitor.DefaultPushSource(),
			FlushSamples: 1,
			Context:      ctx,
		})
		if err != nil {
			n.close()
			return nil, err
		}
		d := monitor.NewDispatcher(64, cluster.NewDownsampler(0, fwd))
		n.forwards = append(n.forwards, fwd)
		n.dispatch = append(n.dispatch, d)
		shard := i
		h.SetForward(func(b monitor.Batch) { l.shardAccepted(shard, d, b) })
	}
	l.hopDrops = func() uint64 { return n.forwards[0].Dropped() + n.forwards[1].Dropped() }
	dial := resolvingDialer(shardAddrs)
	n.rt.base.(*http.Transport).DialContext = dial
	probes := http.DefaultTransport.(*http.Transport).Clone()
	probes.DialContext = dial
	n.probes = probes
	for a := 0; a < sh.agents; a++ {
		// -sink pushv4:shard@S1,S2 with this agent's push identity.
		s, err := cluster.New(cluster.Options{
			Targets:     shardURLs,
			Policy:      cluster.PolicyShard,
			Format:      monitor.WireV4,
			Source:      agentName(a),
			Context:     ctx,
			Client:      n.client,
			ProbeClient: &http.Client{Transport: probes, Timeout: 2 * time.Second},
		})
		if err != nil {
			n.close()
			return nil, err
		}
		n.agents = append(n.agents, s)
	}
	return n, nil
}

// close tears the topology down upstream first, so every hop drains
// into a live receiver.
func (n *fleetNet) close() {
	for _, a := range n.agents {
		_ = a.Close()
	}
	for _, h := range n.shards {
		_ = h.Close()
	}
	for _, d := range n.dispatch {
		_ = d.Close()
	}
	if n.root != nil {
		_ = n.root.Close()
	}
	n.rt.closeIdle()
	if n.probes != nil {
		n.probes.CloseIdleConnections()
	}
	n.cancel()
}

// fleetRun is one run of the workload: its shape, inputs and ledger.
type fleetRun struct {
	sh       fleetShape
	pool     *valuePool
	tr       *tracer
	backfill [][]byte // gzipped JSON payload per round
	batch    []monitor.Sample
}

// agentBatch generates agent a's flush of the given round: every series,
// ticks points each, series-major like a collector's batches.
func (f *fleetRun) agentBatch(l *ledger, a, round int) monitor.Batch {
	f.batch = f.batch[:0]
	for s := 0; s < f.sh.series; s++ {
		metric := fmt.Sprintf("m%02d", s/idsPerMetric)
		for t := 0; t < f.sh.ticks; t++ {
			tick := round*f.sh.ticks + t
			f.batch = append(f.batch, monitor.Sample{
				Metric: metric, Scope: monitor.ScopeThread, ID: s % idsPerMetric,
				Labels: l.labels[a], Time: float64(tick + 1),
				Value: f.pool.value(a, s, tick),
			})
		}
	}
	return monitor.Batch{Collector: "perfctr", Time: f.batch[len(f.batch)-1].Time, Samples: f.batch}
}

// backfillPayload encodes one round's backfill: backfillSeries series of
// the "backfill" producer, ticks points each, as gzipped JSON lines.
func (f *fleetRun) backfillPayload(round int) ([]byte, error) {
	recs := make([]wireSample, 0, f.sh.backfillSeries*f.sh.ticks)
	for s := 0; s < f.sh.backfillSeries; s++ {
		metric := fmt.Sprintf("bf%02d", s/idsPerMetric)
		for t := 0; t < f.sh.ticks; t++ {
			tick := round*f.sh.ticks + t
			recs = append(recs, wireSample{
				Time: float64(tick + 1), Collector: "backfill", Source: "backfill",
				Metric: metric, Scope: "thread", ID: s % idsPerMetric,
				Value: f.pool.value(backfillSource, s, tick),
			})
		}
	}
	return gzipJSONLines(recs)
}

// round drives one closed-loop round: every agent flushes once with at
// most flightDepth flushes in flight, then — with the pipeline drained —
// the backfill producer POSTs once.  It returns the round's ops.
func (f *fleetRun) round(n *fleetNet, l *ledger, r int, postKind string) ([]*fleetOp, error) {
	var ops []*fleetOp
	for a := 0; a < f.sh.agents; a++ {
		if l.inflightCount() >= flightDepth {
			if err := l.wait(l.oldest()); err != nil {
				return nil, err
			}
		}
		b := f.agentBatch(l, a, r)
		op := l.open(a, r, len(b.Samples))
		n.rt.begin(op.id, postKind)
		op.start = time.Now()
		err := n.agents[a].Write(b)
		wrote := time.Now()
		wait, bytes := n.rt.took()
		f.tr.spanWithID(f.tr.id(), "cluster.write", op.id, op.start, wrote)
		f.tr.observe("push.encode_ms", float64(wrote.Sub(op.start)-wait)/1e6)
		f.tr.add("push.wire_bytes", float64(bytes))
		f.tr.add("push.wire_samples", float64(len(b.Samples)))
		if err != nil {
			// The samples stay buffered in the sink; the op completes
			// only if a later flush delivers them.
			op.failed = true
		}
		ops = append(ops, op)
	}
	for l.inflightCount() > 0 {
		if err := l.wait(l.oldest()); err != nil {
			return nil, err
		}
	}
	op := l.open(backfillSource, r, f.sh.backfillSeries*f.sh.ticks)
	n.rt.begin(op.id, postKind)
	op.start = time.Now()
	if err := postIngest(n.client, ingestURL(n.shards[1]), f.backfill[r]); err != nil {
		return nil, fmt.Errorf("backfill round %d: %w", r, err)
	}
	if err := l.wait(op); err != nil {
		return nil, err
	}
	return append(ops, op), nil
}

// fleetWorkload is the fleet-push workload: agent → shard → root, closed
// loop.  The invoking process records the value pool; every stage builds
// a fresh topology and times its cold round.
func fleetWorkload(sh fleetShape) workload {
	return workload{
		prepare: func(cfg config) error {
			pool, err := recordPool(cfg.seed, sh.poolNodes, sh.poolTicks)
			if err != nil {
				return err
			}
			return writePool(cfg.workDir, pool)
		},
		stages: setupStages(sh.setups),
		stage: func(cfg config, tr *tracer, name string) (*outcome, error) {
			return fleetStage(cfg, tr, sh, name)
		},
	}
}

func fleetStage(cfg config, tr *tracer, sh fleetShape, stage string) (*outcome, error) {
	if stage != "setup" && stage != "run" {
		return nil, fmt.Errorf("unknown stage %q", stage)
	}
	pool, err := readPool(cfg.workDir)
	if err != nil {
		return nil, err
	}
	rounds := scaled(cfg.seconds, sh.roundsPerSecond)
	f := &fleetRun{sh: sh, pool: pool, tr: tr}
	// Inputs: the backfill payloads are encoded up front; agent batches
	// are generated per flush at a small fixed cost, outside each op's
	// timed interval.
	payloads := 1 // the cold round's
	if stage == "run" {
		payloads = 2 + rounds
	}
	for r := 0; r < payloads; r++ {
		p, err := f.backfillPayload(r)
		if err != nil {
			return nil, err
		}
		f.backfill = append(f.backfill, p)
	}

	// Set-up: the cold round that creates every series at all three
	// receivers of a fresh topology.
	l := newLedger(sh, pool, tr)
	n, err := buildFleet(sh, l, tr)
	if err != nil {
		return nil, err
	}
	defer n.close()
	start := time.Now()
	if _, err := f.round(n, l, 0, "ingest.post.new"); err != nil {
		return nil, fmt.Errorf("cold round: %w", err)
	}
	cold := time.Since(start).Seconds()
	tr.observe("ingest.cold_series_us", cold*1e6/float64(sh.agents*sh.series))
	out := &outcome{setupRuns: []float64{cold}}
	if stage == "setup" {
		return out, nil
	}
	// One untimed warm-up round lets the cold round's garbage be
	// collected and the connections settle before the timed phase.
	if _, err := f.round(n, l, 1, "ingest.post.known"); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}

	sentBefore := shardSent(n)
	l.mu.Lock()
	dropsBefore, arrivedBefore := l.dropsLocked(), l.arrivals
	l.mu.Unlock()
	// Each round is one chunk.
	var ops []*fleetOp
	for r := 2; r < 2+rounds; r++ {
		t := startChunk()
		roundOps, err := f.round(n, l, r, "ingest.post.known")
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		arrived := l.arrivals - arrivedBefore
		arrivedBefore = l.arrivals
		l.mu.Unlock()
		latencies := make([]float64, len(roundOps))
		for i, op := range roundOps {
			latencies[i] = float64(op.end.Sub(op.start)) / 1e6
		}
		out.chunks = append(out.chunks, t.stop(arrived, latencies))
		ops = append(ops, roundOps...)
	}
	out.peakMB = peakRSSMB()
	l.mu.Lock()
	tr.add("forward.dropped_samples", float64(l.dropsLocked()-dropsBefore))
	l.mu.Unlock()
	sent := shardSent(n)
	var total, most float64
	for i := range sent {
		d := float64(sent[i] - sentBefore[i])
		total += d
		most = max(most, d)
	}
	if total > 0 {
		tr.observe("cluster.shard_imbalance", most/(total/float64(len(sent))))
	}

	for _, op := range ops {
		out.attempted++
		if op.failed || op.dropped > 0 {
			out.failed++
		}
		name := "op.flush"
		if op.source == backfillSource {
			name = "op.backfill"
		}
		tr.spanWithID(op.id, name, 0, op.start, op.end)
	}
	l.mu.Lock()
	out.problems = append(out.problems, l.problems...)
	l.mu.Unlock()
	checkFleet(out, f, n, l, ops, rounds)
	return out, nil
}

// shardSent is how many agent samples each shard has acknowledged.
func shardSent(n *fleetNet) []uint64 {
	sent := make([]uint64, len(n.shards))
	for _, a := range n.agents {
		for i, ts := range a.Status() {
			sent[i] += ts.Sent
		}
	}
	return sent
}

// checkFleet runs the output checks that need the whole run: every
// agent sample reached the root (exactly once and with the generator's
// value — the root hook checked both per sample), each agent series
// lives on exactly one shard, and a root /query returns the points.
func checkFleet(out *outcome, f *fleetRun, n *fleetNet, l *ledger, ops []*fleetOp, rounds int) {
	checkArrivals(out, ops)
	owners := map[monitor.Key]int{}
	for _, st := range n.shardStores {
		for _, k := range st.Keys() {
			if k.Source != "backfill" {
				owners[k]++
			}
		}
	}
	if want := f.sh.agents * f.sh.series; len(owners) != want {
		out.problem("shards hold %d agent series, generated %d", len(owners), want)
	}
	for k, c := range owners {
		if c != 1 {
			out.problem("series %s/%s id %d lives on %d shards", k.Source, k.Metric, k.ID, c)
		}
	}
	checkRootQuery(out, f, n, l, rounds)
}

// checkArrivals requires every agent flush to have reached the root in
// full; the backfill may lose samples to the forward hop (counted as a
// failed operation, not as wrong output).
func checkArrivals(out *outcome, ops []*fleetOp) {
	for _, op := range ops {
		if op.source != backfillSource && op.arrived != op.expected {
			out.problem("%s round %d: %d of %d samples reached the root", agentName(op.source), op.round, op.arrived, op.expected)
		}
	}
}

// checkRootQuery fans one metric out across every agent through the
// root's /query and compares each series with the generated points the
// root's ring still retains.
func checkRootQuery(out *outcome, f *fleetRun, n *fleetNet, l *ledger, rounds int) {
	q := url.Values{"metric": {"m00"}, "source": {"*"}, "scope": {"thread"}, "id": {"0"}}
	body, err := getBody(n.client, "http://"+n.root.Addr()+"/query?"+q.Encode())
	if err != nil {
		out.problem("root /query: %v", err)
		return
	}
	var resp struct {
		Series []struct {
			Source string          `json:"source"`
			Points []monitor.Point `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		out.problem("root /query: %v", err)
		return
	}
	if len(resp.Series) != f.sh.agents {
		out.problem("root /query returned %d series, want %d", len(resp.Series), f.sh.agents)
	}
	ticks := (rounds + 2) * f.sh.ticks // the cold, warm-up and timed rounds
	keep := min(ticks, f.sh.retain)
	for _, s := range resp.Series {
		a, ok := l.sources[s.Source]
		if !ok || a == backfillSource {
			out.problem("root /query: unexpected source %q", s.Source)
			continue
		}
		if len(s.Points) != keep {
			out.problem("root /query %s: %d points, want %d", s.Source, len(s.Points), keep)
			continue
		}
		for i, p := range s.Points {
			tick := ticks - keep + i
			if want := f.pool.value(a, 0, tick); p.Time != float64(tick+1) || p.Value != want {
				out.problem("root /query %s point %d: (%v, %v), generated (%v, %v)",
					s.Source, i, p.Time, p.Value, tick+1, want)
				break
			}
		}
	}
}
