// Command perfbench is the repository's end-to-end benchmark.  One
// invocation runs one workload on a fixed amount of work scaled from
// -seconds, checks the program's outputs against values it computes
// itself, and prints one JSON result line:
//
//	perfbench -workload fleet-push -seed 1 -seconds 15 -trace 0
//
// Every set-up and the timed phase run in fresh processes of this binary
// (stages), so each set-up starts from a fresh process's heap and the
// peak RSS is that of the timed phase's process alone.  With -trace 0 the
// result carries the end-to-end metrics; with -trace 1 it carries the
// per-layer metrics taken from spans recorded around the benchmark's own
// calls into each layer.  See README.md for the workloads, the metrics
// and the faults they keep in view.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where run.sh builds the benchmark; the runs keep their
// state dirs and span files there too, inside the checkout.
const buildDir = ".bench_build"

// runDeadline bounds a whole invocation, its stage processes included.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // shared by the stages: inputs and state dirs, removed at exit
}

// outcome is what a stage hands back: its operation counts, the raw
// end-to-end measurements, and the problems its output checks found.
type outcome struct {
	attempted int
	failed    int
	problems  []string

	setupRuns []float64 // seconds, one per set-up
	chunks    []chunk   // the timed phase, in order
	peakMB    float64   // peak RSS at the end of the timed phase, before the post-run checks
}

// chunk is one slice of the timed phase: a fleet-push round, a
// churn-query snapshot interval, a paper-figures pass.  Throughput and
// CPU per sample are medians over a run's chunks, so a burst of load from
// the machine's other tenants that covers fewer than half of them does
// not move them; latency quantiles are taken over all of a run's
// operations, so that p90 has at least ten operations beyond it.
type chunk struct {
	Samples   int       `json:"samples"`   // samples made queryable (or simulated measurements made)
	Seconds   float64   `json:"seconds"`   // time the program worked for them
	CPU       float64   `json:"cpu"`       // process user+system CPU seconds
	Latencies []float64 `json:"latencies"` // ms, one per operation
}

// timer measures one chunk.
type timer struct {
	start time.Time
	cpu   float64
}

func startChunk() timer { return timer{time.Now(), cpuSeconds()} }

// stop is the chunk since start; its busy time is the wall time unless
// the caller sets Seconds itself.
func (t timer) stop(samples int, latencies []float64) chunk {
	return chunk{Samples: samples, Seconds: time.Since(t.start).Seconds(), CPU: cpuSeconds() - t.cpu, Latencies: latencies}
}

// totals sums the chunks: samples, busy seconds, operations.
func (o *outcome) totals() (samples int, seconds float64, ops int) {
	for _, c := range o.chunks {
		samples += c.Samples
		seconds += c.Seconds
		ops += len(c.Latencies)
	}
	return samples, seconds, ops
}

// problem records one failed output check; the first few are printed.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one workload's stages.  prepare runs in the invoking
// process and writes inputs the stages share into cfg.workDir; every
// stage runs in a fresh process.  A "setup" stage times one set-up and
// exits; the "run" stage, always last, times one more set-up and then
// runs the timed phase and the output checks.
type workload struct {
	prepare func(cfg config) error
	stages  []string
	stage   func(cfg config, tr *tracer, name string) (*outcome, error)
}

// setupStages is n set-ups: n-1 "setup" stages and the "run" stage.
func setupStages(n int) []string {
	stages := make([]string, 0, n)
	for i := 1; i < n; i++ {
		stages = append(stages, "setup")
	}
	return append(stages, "run")
}

// workloads maps each workload name to its stages.
var workloads = map[string]workload{
	"fleet-push":    fleetWorkload(fleetFull),
	"churn-query":   churnWorkload(churnFull),
	"paper-figures": figuresWorkload(figuresFull),
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 15, "run length the fixed amount of work is scaled to")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead")
	stage := fs.String("stage", "", "internal: run one stage in this process and print its raw outcome")
	dir := fs.String("dir", "", "internal: the stages' shared work dir")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	tr := newTracer(cfg.trace)

	if *stage != "" {
		cfg.workDir = *dir
		out, err := w.stage(cfg, tr, *stage)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %s stage: %v\n", cfg.workload, *stage, err)
			return 1
		}
		line, err := json.Marshal(toStage(out, tr))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	}

	workDir, err := os.MkdirTemp(mustMkdir(filepath.Join(buildDir, "work")), cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg.workDir = workDir
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	out, err := runStages(cfg, tr, w, processSpawner(ctx, cfg, stderr))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	_, busy, _ := out.totals()
	fmt.Fprintf(stderr, "perfbench: %s: %d operations (%d failed) in a %.2f s timed phase of %d chunks; set-up runs %.3v s\n",
		cfg.workload, out.attempted, out.failed, busy, len(out.chunks), out.setupRuns)
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed}
	if cfg.trace {
		res.Metrics = tr.layerMetrics()
		if err := tr.writeSpans(filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		}
	} else {
		res.Metrics = endToEnd(out)
	}
	for i, p := range out.problems {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: ... and %d more failed checks\n", len(out.problems)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || out.attempted < 1 {
		return 1
	}
	return 0
}

// spawner runs one stage and returns its outcome and trace.
type spawner func(stage string) (*outcome, *traceDump, error)

// runStages prepares the workload's shared inputs and runs its stages in
// order: the set-up times of every stage are collected, everything else
// comes from the run stage, and the stages' traces are merged into tr.
func runStages(cfg config, tr *tracer, w workload, spawn spawner) (*outcome, error) {
	if w.prepare != nil {
		if err := w.prepare(cfg); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var out *outcome
	for _, name := range w.stages {
		o, dump, err := spawn(name)
		if err != nil {
			return nil, fmt.Errorf("%s stage: %w", name, err)
		}
		setups = append(setups, o.setupRuns...)
		tr.merge(dump, name)
		if name == "run" {
			out = o
		}
	}
	if out == nil {
		return nil, fmt.Errorf("no run stage")
	}
	out.setupRuns = setups
	return out, nil
}

// processSpawner runs each stage as a fresh process of this binary and
// waits for it; the stage's stderr goes to stderr.
func processSpawner(ctx context.Context, cfg config, stderr io.Writer) spawner {
	return func(stage string) (*outcome, *traceDump, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, nil, err
		}
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.CommandContext(ctx, exe, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-stage", stage, "-dir", cfg.workDir)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, stderr
		cmd.WaitDelay = 5 * time.Second
		// A stage dies with the invoking process, so stopping that stops
		// the whole run.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "perfbench: %s: %s stage took %.2f s\n", cfg.workload, stage, time.Since(start).Seconds())
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var st stageResult
		if err := json.Unmarshal(lines[len(lines)-1], &st); err != nil {
			return nil, nil, fmt.Errorf("reading the stage's result: %w", err)
		}
		return st.outcome(), st.Trace, nil
	}
}

// inProcessSpawner runs each stage in this process, with a tracer of its
// own: the reduced-size runs of the benchmark's tests.
func inProcessSpawner(cfg config, w workload) spawner {
	return func(stage string) (*outcome, *traceDump, error) {
		tr := newTracer(cfg.trace)
		out, err := w.stage(cfg, tr, stage)
		if err != nil {
			return nil, nil, err
		}
		return out, tr.dump(), nil
	}
}

// stageResult is the line a stage process prints: its outcome and, in a
// traced run, its trace.
type stageResult struct {
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Problems  []string   `json:"problems,omitempty"`
	SetupRuns []float64  `json:"setup_runs,omitempty"`
	Chunks    []chunk    `json:"chunks,omitempty"`
	PeakMB    float64    `json:"peak_mb"`
	Trace     *traceDump `json:"trace,omitempty"`
}

func toStage(o *outcome, tr *tracer) stageResult {
	return stageResult{Attempted: o.attempted, Failed: o.failed, Problems: o.problems, SetupRuns: o.setupRuns,
		Chunks: o.chunks, PeakMB: o.peakMB, Trace: tr.dump()}
}

func (s stageResult) outcome() *outcome {
	return &outcome{attempted: s.Attempted, failed: s.Failed, problems: s.Problems, setupRuns: s.SetupRuns,
		chunks: s.Chunks, peakMB: s.PeakMB}
}

func mustMkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// endToEnd turns a workload's raw measurements into the six end-to-end
// metrics every workload reports.
func endToEnd(o *outcome) map[string]metric {
	perChunk := func(f func(c chunk) float64) float64 {
		vs := make([]float64, len(o.chunks))
		for i, c := range o.chunks {
			vs[i] = f(c)
		}
		return median(vs)
	}
	var latencies []float64
	for _, c := range o.chunks {
		latencies = append(latencies, c.Latencies...)
	}
	return map[string]metric{
		"setup_s":           {median(o.setupRuns), "s"},
		"samples_per_s":     {perChunk(func(c chunk) float64 { return float64(c.Samples) / c.Seconds }), "1/s"},
		"latency_p50_ms":    {quantile(latencies, 0.50), "ms"},
		"latency_p90_ms":    {quantile(latencies, 0.90), "ms"},
		"cpu_us_per_sample": {perChunk(func(c chunk) float64 { return c.CPU * 1e6 / float64(c.Samples) }), "us"},
		"mem_peak_mb":       {o.peakMB, "MB"},
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median of xs (not modified); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (not
// modified); 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// mix64 is the splitmix64 finalizer: the benchmark's input generator.
// Every generated value is a pure function of the seed and the value's
// coordinates, so checks recompute expectations instead of storing them.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a uniform value in [0, 1) for the given coordinates.
func unit(seed int64, coords ...int) float64 {
	h := mix64(uint64(seed))
	for _, c := range coords {
		h = mix64(h ^ uint64(c))
	}
	return float64(h>>11) / (1 << 53)
}

// scaled returns max(1, round(seconds*perSecond)): the fixed amount of
// work a run of the given length performs.
func scaled(seconds int, perSecond float64) int {
	n := int(float64(seconds)*perSecond + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
