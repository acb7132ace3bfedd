package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"likwid/internal/experiments"
	"likwid/internal/hwdef"
	"likwid/internal/stats"
	"likwid/internal/workloads/jacobi"
	"likwid/internal/workloads/stream"
)

// figuresShape sizes the paper-figures workload: one pass is every
// figure point of Figs. 4–10 (samples STREAM runs each), Fig. 11 and
// Table II.
type figuresShape struct {
	figs            []experiments.StreamSpec
	sizes           []int // Fig. 11 grid sizes
	samples         int   // STREAM samples per thread count (the paper: 100)
	fig11Iters      int
	setups          int
	passesPerSecond float64
}

// figuresFull: a pass took 2.3–3 s on the 2-CPU box the rate is
// calibrated on.
var figuresFull = figuresShape{
	figs: experiments.StreamFigures(), sizes: experiments.Fig11Sizes(),
	samples: 20, fig11Iters: 20, setups: 3, passesPerSecond: 0.4,
}

// figPoint is one operation: a STREAM box (one thread count of one
// figure), one Fig. 11 grid size, or Table II.
type figPoint struct {
	spec    experiments.StreamSpec // STREAM points
	threads int
	size    int  // Fig. 11 points
	table   bool // Table II
}

// figResults is one pass's output, in the shape the paper checks read.
type figResults struct {
	stream map[string][]stats.Summary // figure ID → summary per thread count (index threads-1)
	fig11  []experiments.Fig11Point
	table  []experiments.TableIIRow
}

// figurePoints lists one pass's points: the Fig. 11 sizes and Table II
// first, then the STREAM points.
func figurePoints(figs []experiments.StreamSpec, sizes []int) []figPoint {
	var pts []figPoint
	for _, n := range sizes {
		pts = append(pts, figPoint{size: n})
	}
	pts = append(pts, figPoint{table: true})
	for _, spec := range figs {
		for t := 1; t <= spec.MaxThreads; t++ {
			pts = append(pts, figPoint{spec: spec, threads: t})
		}
	}
	return pts
}

// fig11Curves are the three placements of Fig. 11.
var fig11Curves = []struct {
	variant   jacobi.Variant
	placement jacobi.Placement
}{
	{jacobi.Wavefront, jacobi.OneSocket},
	{jacobi.Wavefront, jacobi.SplitPairs},
	{jacobi.ThreadedNT, jacobi.OneSocket},
}

type figuresRun struct {
	sh      figuresShape
	tr      *tracer
	nehalem *hwdef.Arch
	archs   map[string]*hwdef.Arch
}

// point measures one figure point, records it in res, and returns how
// many simulated measurements it made.
func (f *figuresRun) point(p figPoint, samples, iters int, op int64, res *figResults) (int, error) {
	switch {
	case p.table:
		start := time.Now()
		rows, err := experiments.TableII()
		f.tr.span("perfctr.table2", op, start)
		if err != nil {
			return 0, err
		}
		res.table = rows
		return len(rows), nil
	case p.size > 0:
		pt := experiments.Fig11Point{Size: p.size}
		targets := []*float64{&pt.WavefrontOneSock, &pt.WavefrontSplit, &pt.ThreadedBaseline}
		for i, c := range fig11Curves {
			start := time.Now()
			r, err := jacobi.Run(jacobi.Config{Arch: f.nehalem, Variant: c.variant, Size: p.size,
				Iters: iters, Threads: 4, Placement: c.placement})
			f.tr.span("jacobi.run", op, start)
			if err != nil {
				return 0, fmt.Errorf("Fig. 11 size %d: %w", p.size, err)
			}
			*targets[i] = r.MLUPS
		}
		res.fig11 = append(res.fig11, pt)
		return len(fig11Curves), nil
	default:
		start := time.Now()
		bw, err := stream.RunSamples(stream.Config{
			Arch: f.archs[p.spec.ArchName], Compiler: p.spec.Compiler, Threads: p.threads,
			Mode: p.spec.Mode, Seed: p.spec.SeedBase + int64(p.threads),
		}, samples)
		f.tr.span("stream.point", op, start)
		if err != nil {
			return 0, fmt.Errorf("%s, %d threads: %w", p.spec.ID, p.threads, err)
		}
		s := res.stream[p.spec.ID]
		if s == nil {
			s = make([]stats.Summary, p.spec.MaxThreads)
			res.stream[p.spec.ID] = s
		}
		s[p.threads-1] = stats.Summarize(bw)
		return len(bw), nil
	}
}

// figuresWorkload is the paper-figures workload; every stage times one
// set-up in a fresh process.
func figuresWorkload(sh figuresShape) workload {
	return workload{
		stages: setupStages(sh.setups),
		stage: func(cfg config, tr *tracer, name string) (*outcome, error) {
			return figuresStage(cfg, tr, sh, name)
		},
	}
}

func figuresStage(cfg config, tr *tracer, sh figuresShape, stage string) (*outcome, error) {
	if stage != "setup" && stage != "run" {
		return nil, fmt.Errorf("unknown stage %q", stage)
	}
	f := &figuresRun{sh: sh, tr: tr, archs: map[string]*hwdef.Arch{}}
	var err error
	if f.nehalem, err = hwdef.Lookup("nehalemEP"); err != nil {
		return nil, err
	}
	for _, spec := range sh.figs {
		if f.archs[spec.ArchName], err = hwdef.Lookup(spec.ArchName); err != nil {
			return nil, err
		}
	}
	// The seed orders the STREAM points of each pass; the points
	// themselves use the experiments' own seeds, so the paper checks see
	// the published reproduction whatever the order.
	rng := rand.New(rand.NewSource(cfg.seed))
	points := figurePoints(sh.figs, sh.sizes)

	// Set-up: a topology report of every modeled arch plus one warm-up
	// sample per figure point.
	start := time.Now()
	for _, name := range hwdef.Names() {
		s := time.Now()
		if _, err := experiments.Fig1Topology(name); err != nil {
			return nil, err
		}
		tr.span("topology.report", 0, s)
	}
	// The warm-up samples stay out of the layer spans, which describe
	// the timed passes.
	warmRun, warm := *f, &figResults{stream: map[string][]stats.Summary{}}
	warmRun.tr = newTracer(false)
	for _, p := range points {
		if _, err := warmRun.point(p, 1, 1, 0, warm); err != nil {
			return nil, err
		}
	}
	out := &outcome{setupRuns: []float64{time.Since(start).Seconds()}}
	if stage == "setup" {
		return out, nil
	}

	// Each pass is one chunk; the paper checks run after it.
	passes := scaled(cfg.seconds, sh.passesPerSecond)
	var results []*figResults
	for pass := 0; pass < passes; pass++ {
		// The Jacobi and Table II points make the largest allocations,
		// and which of them run side by side sets the process's peak
		// RSS: shuffled with the rest, the peak followed the seed (24–35
		// MB).  They keep their place; the seed orders the STREAM points.
		order := append([]figPoint(nil), points...)
		stream := order[len(sh.sizes)+1:]
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		t := startChunk()
		res, ch, err := f.pass(order, out)
		if err != nil {
			return nil, err
		}
		out.chunks = append(out.chunks, t.stop(ch.Samples, ch.Latencies))
		results = append(results, res)
	}
	out.peakMB = peakRSSMB()
	for _, res := range results {
		checkFigures(out, res)
	}
	return out, nil
}

// figureWorkers is how many figure points are measured at once: one per
// CPU of the 2-CPU box the rates are calibrated on.  A single worker's
// speed follows whichever CPU its thread lands on, which made run-to-run
// spreads of a single-worker pass twice those of the pipeline workloads.
const figureWorkers = 2

// pass measures every point of one pass, figureWorkers at a time, in the
// given order, and records each point as one operation: its samples and
// latencies go to the returned chunk.
func (f *figuresRun) pass(order []figPoint, out *outcome) (*figResults, chunk, error) {
	res := &figResults{stream: map[string][]stats.Summary{}}
	var (
		mu    sync.Mutex
		ch    chunk
		first error
		wg    sync.WaitGroup
	)
	next := make(chan figPoint)
	for w := 0; w < figureWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				op := f.tr.id()
				own := &figResults{stream: map[string][]stats.Summary{}}
				start := time.Now()
				n, err := f.point(p, f.sh.samples, f.sh.fig11Iters, op, own)
				end := time.Now()
				f.tr.spanWithID(op, "op.point", 0, start, end)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				res.merge(own)
				out.attempted++
				ch.Samples += n
				ch.Latencies = append(ch.Latencies, float64(end.Sub(start))/1e6)
				mu.Unlock()
			}
		}()
	}
	for _, p := range order {
		next <- p
	}
	close(next)
	wg.Wait()
	return res, ch, first
}

// merge adds one point's results to the pass's.
func (r *figResults) merge(o *figResults) {
	for id, pts := range o.stream {
		if r.stream[id] == nil {
			r.stream[id] = make([]stats.Summary, len(pts))
		}
		for i, p := range pts {
			if p.N > 0 {
				r.stream[id][i] = p
			}
		}
	}
	r.fig11 = append(r.fig11, o.fig11...)
	if o.table != nil {
		r.table = o.table
	}
}

// checkFigures holds one pass's results to the paper's published values
// and shapes (the thresholds of the experiments' own tests).
func checkFigures(out *outcome, res *figResults) {
	fig4, fig5 := res.stream[experiments.Fig4.ID], res.stream[experiments.Fig5.ID]
	if len(fig4) < 6 || len(fig5) < 6 {
		out.problem("Figs. 4/5 missing thread counts")
		return
	}
	// Fig. 5: pinned STREAM plateaus near 41.6 GB/s from 6 threads on;
	// odd counts straggle on the loaded socket.
	for i := 5; i < len(fig5); i++ {
		med := fig5[i].Median
		if med < 33000 || med > 43000 || ((i+1)%2 == 0 && med < 39500) {
			out.problem("Fig. 5, %d threads: median %.0f MB/s, want the 41.6 GB/s plateau", i+1, med)
		}
	}
	// Unpinned spread is well above the pinned one.
	if fig4[3].IQR() < 4*fig5[3].IQR()+1 {
		out.problem("Fig. 4 vs 5 at 4 threads: unpinned IQR %.0f not well above pinned IQR %.0f", fig4[3].IQR(), fig5[3].IQR())
	}
	// Fig. 11: wrong pinning costs a factor of about 2 once the grid
	// outgrows the smallest size, where the wavefront has no edge yet.
	if len(res.fig11) == 0 {
		out.problem("Fig. 11 missing")
	}
	for _, p := range res.fig11 {
		if p.Size < 100 {
			continue
		}
		if factor := p.WavefrontOneSock / p.WavefrontSplit; factor < 1.5 || factor > 3 {
			out.problem("Fig. 11, size %d: wrong-pinning factor %.2f, want about 2", p.Size, factor)
		}
	}
	// Table II: MLUPS within 5% of the paper; blocking cuts traffic 4–7×.
	if len(res.table) != 3 {
		out.problem("Table II has %d rows, want 3", len(res.table))
		return
	}
	for _, r := range res.table {
		if r.MLUPS < 0.95*r.PaperMLUPS || r.MLUPS > 1.05*r.PaperMLUPS {
			out.problem("Table II %s: %.0f MLUPS, paper %.0f", r.Variant, r.MLUPS, r.PaperMLUPS)
		}
	}
	if ratio := res.table[0].VolumeGB / res.table[2].VolumeGB; ratio < 4 || ratio > 7 {
		out.problem("Table II: blocked traffic %.2f× lower, want 4–7×", ratio)
	}
}
