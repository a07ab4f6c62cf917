// Command fedbench is the end-to-end benchmark of the MYRIAD federation.
// It boots a federation in-process — component sites served by
// comm.Server over loopback TCP, the federation served by fedserver, and
// closed-loop clients speaking fedclient, as myriadd and myriadctl do —
// and runs one named workload (oltp, analytics or export) for a fixed
// time. It checks every answer and prints the metrics as one JSON
// object on the last line of stdout; a human-readable report with
// sample counts goes to stderr.
//
// Usage:
//
//	fedbench --workload oltp --seed 1 --seconds 10 --trace 0 [--dir .bench_build]
//
// --trace 1 runs an untraced window and then a traced one, and prints
// the per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// bench is one workload: its deployment, clients and operation mix.
type bench interface {
	spec() fedSpec
	clients() int
	// warmSessions is the number of sessions each client runs before
	// timing starts.
	warmSessions() int
	// session runs one closed-loop session, recording its operations.
	session(ctx context.Context, c *client)
	// probes returns one statement per query class, for the traced
	// run's sequential per-class counter pass.
	probes(c *client) []probe
	// check runs the end-of-run correctness gates.
	check(ctx context.Context, d *deployment) []string
	// corrupt damages an expected answer, so the gates must fail.
	corrupt()
}

type probe struct{ class, sql string }

// readClass is each workload's read of the integrated data, the class
// behind read_p50_ms.
var readClass = map[string]string{"oltp": "readback", "analytics": "point", "export": "scan"}

func newBench(workload string, seed int64) (bench, error) {
	switch workload {
	case "oltp":
		return newOLTP(seed, 2), nil
	case "analytics":
		return newAnalytics(seed, 2), nil
	case "export":
		return newExport(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want oltp, analytics or export)", workload)
}

func (o *oltp) corrupt() { o.total++ }

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	corrupt  bool
}

// setups is the number of complete set-ups per run; setup_s is their
// median and the last one is measured.
const setups = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// report holds the stderr lines (name, value, unit, samples).
	report []string
	notes  []string
}

func (r *result) add(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.report = append(r.report, fmt.Sprintf("%-42s %14.4f %-10s n=%d", name, v, unit, samples))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the benchmark and returns the exit code: 0 when
// every correctness gate passed, 1 otherwise (and 2 on bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "oltp | analytics | export")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for data and operation sequences")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured window length")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory for WALs, spill files and traces")
	fs.BoolVar(&cfg.corrupt, "corrupt-expected", false, "damage an expected answer (self-test of the gates)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "fedbench: --seconds must be positive")
		return 2
	}
	// The contract is an exit within 180s; never outlive it.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(stderr, "fedbench: watchdog expired")
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "fedbench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "fedbench: workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, l := range res.report {
		fmt.Fprintln(stderr, "  "+l)
	}
	for _, n := range res.notes {
		fmt.Fprintln(stderr, "  FAIL: "+n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "fedbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// instance is one set-up federation with its clients.
type instance struct {
	b       bench
	d       *deployment
	clients []*client
	cold    float64 // first query's latency (ms)
	warm    *recorder
}

func (in *instance) close() {
	for _, c := range in.clients {
		c.cl.Close() //nolint:errcheck
	}
	in.d.close()
}

// setUp generates the inputs, boots the federation, dials the clients
// and runs the warm-up.
func setUp(ctx context.Context, cfg config, dir string) (*instance, float64, error) {
	b, err := newBench(cfg.workload, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	if cfg.corrupt {
		b.corrupt()
	}
	spec := b.spec()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	t0 := time.Now()
	d, err := boot(dir, spec, tr)
	if err != nil {
		return nil, 0, err
	}
	in := &instance{b: b, d: d, warm: newRecorder()}
	for i := 0; i < b.clients(); i++ {
		in.clients = append(in.clients, &client{
			idx: i, cl: d.client(), tr: tr,
			rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i) + 1)),
		})
	}
	window(ctx, b, in.clients, in.warm, 0, b.warmSessions())
	in.cold = in.clients[0].coldMs
	return in, time.Since(t0).Seconds(), nil
}

// window runs every client's closed loop, for dur or (dur == 0) for a
// fixed number of sessions per client.
func window(ctx context.Context, b bench, clients []*client, rec *recorder, dur time.Duration, sessions int) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.rec = rec
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for n := 0; ; n++ {
				if dur > 0 && !time.Now().Before(deadline) || dur == 0 && n >= sessions || ctx.Err() != nil {
					return
				}
				c.sessionOK = true
				t0 := time.Now()
				b.session(ctx, c)
				ms := float64(time.Since(t0)) / 1e6
				if c.sessionOK {
					rec.mu.Lock()
					rec.sessions = append(rec.sessions, ms)
					rec.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func execute(cfg config) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 160*time.Second)
	defer cancel()
	runDir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir) //nolint:errcheck

	var in *instance
	var setupSecs []float64
	for k := 0; k < setups; k++ {
		if in != nil {
			in.close()
		}
		var secs float64
		var err error
		in, secs, err = setUp(ctx, cfg, filepath.Join(runDir, fmt.Sprint(k)))
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, secs)
	}
	defer in.close()
	// Collect the discarded set-ups' garbage now, not inside the window.
	runtime.GC()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	rec := newRecorder()
	execMark := in.d.execs.len()
	siteSpill0, _ := in.d.siteSpill()
	cpu0 := cpuTime()
	elapsed := window(ctx, in.b, in.clients, rec, dur, 0)
	cpu := cpuTime() - cpu0
	throughput := float64(rec.completed()) / elapsed.Seconds()

	res := &result{Metrics: map[string]metric{}}
	var lay *layerRun
	if cfg.trace {
		var err error
		lay, err = tracedRun(ctx, cfg, in, dur, throughput, rec)
		if err != nil {
			return nil, err
		}
	}

	// Correctness: every answer, the end-of-run gates, and the workload
	// sanity assertions.
	res.Attempted = rec.attempted + in.warm.attempted
	res.Failed = rec.failed + in.warm.failed
	res.notes = append(res.notes, in.warm.notes...)
	res.notes = append(res.notes, rec.notes...)
	if lay != nil {
		res.Attempted += lay.rec.attempted
		res.Failed += lay.rec.failed
		res.notes = append(res.notes, lay.rec.notes...)
		res.notes = append(res.notes, lay.notes...)
	}
	res.notes = append(res.notes, in.b.check(ctx, in.d)...)
	res.notes = append(res.notes, sanity(cfg.workload, in.d, execMark, siteSpill0)...)
	res.Correct = res.Failed == 0 && len(res.notes) == 0 && res.Attempted > 0

	if cfg.trace {
		for _, name := range lay.order {
			m := lay.metrics[name]
			res.add(name, m.Value, m.Unit, lay.samples[name])
		}
		return res, nil
	}
	res.add("setup_s", median(setupSecs), "s", len(setupSecs))
	res.add("throughput_ops_s", throughput, "ops/s", rec.completed())
	res.add("session_p50_ms", median(rec.sessions), "ms", len(rec.sessions))
	reads := rec.lat[readClass[cfg.workload]]
	res.add("read_p50_ms", median(reads), "ms", len(reads))
	res.add("cpu_ms_per_op", ratio(float64(cpu)/1e6, rec.completed()), "ms", rec.completed())
	// Per-class figures, for reading (not part of the JSON contract).
	for _, cm := range classMetrics(rec) {
		res.report = append(res.report, fmt.Sprintf("%-42s %14.4f %-10s n=%d (class)", cm.name, cm.value, cm.unit, cm.samples))
	}
	return res, nil
}

// sanity asserts that each workload exercised the layer it was chosen
// for: analytics never spills, the export sort always does.
func sanity(workload string, d *deployment, execMark int, siteSpill0 int64) []string {
	siteSpill, _ := d.siteSpill()
	var fedSpill, sortSpill int64
	var sorts int
	for _, e := range d.execs.since(execMark) {
		fedSpill += e.spilledBytes
		if e.sql == sortSQL {
			sorts++
			sortSpill += e.spilledBytes
		}
	}
	switch workload {
	case "analytics":
		if siteSpill-siteSpill0+fedSpill != 0 {
			return []string{fmt.Sprintf("analytics spilled %d bytes; its budgets must fit every query", siteSpill-siteSpill0+fedSpill)}
		}
	case "export":
		if sorts == 0 || sortSpill == 0 {
			return []string{fmt.Sprintf("export sort did not spill (%d sorts, %d bytes)", sorts, sortSpill)}
		}
	}
	return nil
}

type classMetric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// classMetrics derives the per-operation-class figures of a window:
// p50 per class, p95 where the class has at least 200 samples (0
// otherwise), scan throughput and first-row latency.
func classMetrics(rec *recorder) []classMetric {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []classMetric
	ratio := 0.0
	if rec.attempted > 0 {
		ratio = float64(rec.failed) / float64(rec.attempted)
	}
	out = append(out, classMetric{"failed_ratio", ratio, "ratio", rec.attempted})
	for _, cl := range []struct {
		class string
		p95   bool
	}{{"transfer", true}, {"readback", true}, {"point", true}, {"topk", false}, {"agg", false}, {"join", false}, {"sort", false}} {
		xs := rec.lat[cl.class]
		out = append(out, classMetric{cl.class + "_p50_ms", median(xs), "ms", len(xs)})
		if cl.p95 {
			p95 := 0.0
			if len(xs) >= 200 {
				p95 = percentile(xs, 0.95)
			}
			out = append(out, classMetric{cl.class + "_p95_ms", p95, "ms", len(xs)})
		}
	}
	rows := 0.0
	if rec.busy["scan"] > 0 {
		rows = float64(rec.rows["scan"]) / rec.busy["scan"]
	}
	out = append(out, classMetric{"scan_rows_s", rows, "rows/s", len(rec.lat["scan"])})
	out = append(out, classMetric{"scan_first_row_ms", median(rec.firstRow["scan"]), "ms", len(rec.firstRow["scan"])})
	return out
}

// cpuTime is the process's user plus system CPU time. Time the host
// steals from the VM is not in it, so per-operation CPU cost stays
// steady where wall-clock latency drifts with the neighbours' load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
