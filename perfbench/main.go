// Command perfbench is the repository benchmark. It runs one named
// workload through the simulator's public API for a fixed time, checks
// every output against a recorded reference, and prints its metrics by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured in host
// time (simulated statistics are correctness checks): units_per_s counts
// completed grid cells, campaign units or serve requests per wall second
// (less the time a hypervisor stole, see clock), alloc_mb_per_unit the
// heap allocated per operation, ok_ratio the share of attempted
// operations that succeeded, and setup_s the median of repeated set-ups.
// A run repeats its workload until -seconds is used up; every pass is
// checked and timed, and rates are medians over passes. Workload-specific
// figures (detail_kips, eff_mips, req_per_s, miss and hit latencies,
// failed_ratio, peak_rss_mb) are printed by name on the lines before the
// result. With -trace 1 the
// benchmark also recomposes the workload out of public layer calls,
// records a span around each call, checks that the recomposed run's
// simulated outputs equal the untraced run's, and reports per-layer
// metrics instead.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload fig7-sampled --seed 1 --seconds 10 --trace 0
//
// Workloads: fig7-sampled, long-prefix, campaign, serve-mix. After a
// deliberate change to simulated results, re-record the reference digests
// with -record (see reference.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"spt"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool   // tiny inputs, for the self-test
	root     string // repository checkout root
	record   bool   // rewrite this workload's reference digests
	jobs     int    // worker and client count (nproc)
}

// bench collects one run's measurements and checks.
type bench struct {
	cfg    config
	out    io.Writer
	ref    *reference
	setups []float64 // seconds per set-up repeat

	attempted, failed int
	// unitRates and unitAllocs hold each pass's completed operations per
	// wall second and heap megabytes allocated per operation.
	unitRates  []float64
	unitAllocs []float64
	layers     map[string]metric
	mismatches []string
}

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median, which keeps one slow first call from setting the figure.
const setupRepeats = 25

// workloadDrivers maps each workload name to its driver.
var workloadDrivers = map[string]func(*bench) error{
	"fig7-sampled": runFig7Sampled,
	"long-prefix":  runLongPrefix,
	"campaign":     runCampaign,
	"serve-mix":    runServeMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the result; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	var size string
	fs.StringVar(&cfg.workload, "workload", "", "workload: fig7-sampled, long-prefix, campaign or serve-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (campaign and serve-mix generate their inputs from it)")
	fs.Float64Var(&seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	fs.StringVar(&size, "size", "full", "input size: full or tiny (self-test)")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.BoolVar(&cfg.record, "record", false, "record this workload's reference digests instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloadDrivers[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || (size != "full" && size != "tiny") || seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, size %q, seconds %g)\n",
			cfg.workload, trace, size, seconds)
		return 2
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.tiny = size == "tiny"
	cfg.jobs = runtime.NumCPU()
	refPath := filepath.Join(cfg.root, "perfbench", "reference.json")

	ref, err := loadReference(refPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{cfg: cfg, out: stdout, ref: ref, layers: map[string]metric{}}
	b.provenance()
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.record {
		if err := ref.save(refPath); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "recorded reference digests for %s in %s\n", cfg.workload, refPath)
	}
	return b.finish()
}

// provenance prints what the numbers were measured on.
func (b *bench) provenance() {
	fmt.Fprintf(b.out, "provenance engine=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d workload=%s trace=%t size=%s\n",
		engineVersion(), runtime.Version(), runtime.GOMAXPROCS(0), b.cfg.jobs, cpuModel(),
		b.cfg.seed, b.cfg.workload, b.cfg.trace, map[bool]string{true: "tiny", false: "full"}[b.cfg.tiny])
}

// finish prints the end-to-end or per-layer metrics and the result line.
func (b *bench) finish() int {
	res := result{Correct: len(b.mismatches) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range b.mismatches {
		fmt.Fprintf(b.out, "MISMATCH %s\n", m)
	}
	if b.attempted < 1 {
		res.Correct = false
		fmt.Fprintln(b.out, "MISMATCH no operation was attempted")
	}
	if b.cfg.trace {
		// Every traced run reports every per-layer metric; a layer the
		// workload never calls reads 0.
		for _, lm := range layerMetrics() {
			m, ok := b.layers[lm.name]
			if !ok {
				m = metric{0, lm.unit}
			}
			res.Metrics[lm.name] = m
		}
	} else {
		okRatio := 0.0
		if b.attempted > 0 {
			okRatio = 1 - float64(b.failed)/float64(b.attempted)
		}
		res.Metrics["setup_s"] = metric{median(b.setups), "s"}
		res.Metrics["units_per_s"] = metric{median(b.unitRates), "1/s"}
		res.Metrics["alloc_mb_per_unit"] = metric{median(b.unitAllocs), "MB"}
		res.Metrics["ok_ratio"] = metric{okRatio, "ratio"}
		b.info("peak_rss_mb", peakRSSMB(), "MB", "")
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b.out, "metric %s %s %s\n", k, fmtValue(res.Metrics[k].Value), res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(b.out, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(b.out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// layerMetric names one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, in BENCHMARK.json order.
func layerMetrics() []layerMetric {
	out := []layerMetric{
		{"checkpoint.advance_s", "s"}, {"checkpoint.advance_minsts", "Minst"}, {"checkpoint.warm_mips", "MIPS"},
		{"checkpoint.capture_s", "s"}, {"checkpoint.materialize_s", "s"}, {"checkpoint.materialize_calls", "count"},
		{"mem.new_s", "s"}, {"mem.new_calls", "count"},
		{"pipeline.new_s", "s"}, {"pipeline.new_calls", "count"},
		{"pipeline.run_s", "s"}, {"pipeline.cycles", "count"}, {"pipeline.retired", "count"},
	}
	for _, s := range spt.Schemes() {
		out = append(out, layerMetric{"pipeline.ns_per_cycle." + string(s), "ns"}, layerMetric{"pipeline.ns_per_inst." + string(s), "ns"})
	}
	for _, k := range traceKernels {
		out = append(out, layerMetric{"pipeline.ns_per_cycle." + k, "ns"})
	}
	return append(out,
		layerMetric{"taint.new_s", "s"}, layerMetric{"taint.new_calls", "count"},
		layerMetric{"fuzz.plan_s", "s"}, layerMetric{"fuzz.shape_s", "s"}, layerMetric{"fuzz.shape_calls", "count"},
		layerMetric{"fuzz.accept_ratio", "ratio"}, layerMetric{"fuzz.cell_s", "s"}, layerMetric{"fuzz.cells", "count"},
		layerMetric{"fuzz.diff_s", "s"}, layerMetric{"fuzz.triage_s", "s"},
		layerMetric{"serve.submit_ms", "ms"}, layerMetric{"serve.queue_wait_ms", "ms"}, layerMetric{"serve.run_ms", "ms"},
		layerMetric{"serve.hit_ratio", "ratio"}, layerMetric{"serve.coalesced_ratio", "ratio"},
		layerMetric{"runtime.gc_cpu_share", "ratio"}, layerMetric{"spt.residual_share", "ratio"},
		layerMetric{"bench.trace_overhead", "ratio"},
	)
}

// saveTrace writes the traced run's spans under the build directory.
func (b *bench) saveTrace(tr *tracer) {
	path := filepath.Join(b.cfg.root, ".bench_build", "trace-"+b.cfg.workload+".jsonl")
	if err := tr.write(path); err != nil {
		fmt.Fprintf(b.out, "trace not saved: %v\n", err)
		return
	}
	fmt.Fprintf(b.out, "trace spans=%d saved to %s\n", tr.spanCount(), path)
}

// info prints a workload-specific metric that is not part of the result
// line, by name and unit.
func (b *bench) info(name string, v float64, unit, note string) {
	if note != "" {
		note = " " + note
	}
	fmt.Fprintf(b.out, "metric %s %s %s%s\n", name, fmtValue(v), unit, note)
}

// layer records one per-layer metric of the traced run.
func (b *bench) layer(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.layers[name] = metric{v, unit}
}

// mismatch records a failed correctness check.
func (b *bench) mismatch(format string, args ...any) {
	b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
}

// timeSetup runs fn setupRepeats times and records each duration; the
// last repeat's state is what the workload keeps.
func (b *bench) timeSetup(fn func() error) error {
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
	return nil
}

// pass records one measured pass: units operations completed in wall
// seconds, allocating allocBytes on the heap.
func (b *bench) pass(units int, wall, allocBytes float64) {
	b.unitRates = append(b.unitRates, float64(units)/wall)
	b.unitAllocs = append(b.unitAllocs, allocBytes/1e6/float64(units))
}

// clock times a pass in the wall seconds the host actually ran this
// machine: wall time minus the steal time /proc/stat reports per
// processor. On a virtual machine whose host also runs other guests,
// stolen time is the largest source of run-to-run spread; elsewhere steal
// reads 0 and this is plain wall time.
type clock struct {
	t0    time.Time
	steal float64
}

func startClock() clock { return clock{time.Now(), stealSeconds()} }

// seconds since the clock started, less the time stolen meanwhile. Steal
// is counted in 10 ms ticks, so on a pass too short to hold it the raw
// wall time stands.
func (c clock) seconds() float64 {
	wall := time.Since(c.t0).Seconds()
	if s := stealSeconds() - c.steal; s > 0 && s < wall {
		return wall - s
	}
	return wall
}

// stealSeconds reads the time the hypervisor ran other guests instead of
// this machine, averaged over its processors (0 if unknown).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var ticks float64
	cpus := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			ticks, _ = strconv.ParseFloat(f[8], 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return ticks / 100 / float64(cpus) // /proc/stat counts in USER_HZ = 100 ticks per second
}

// repeat runs pass until the measured time is used up (at least once).
func (b *bench) repeat(pass func() error) error {
	deadline := time.Now().Add(b.cfg.seconds)
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}

// pairs runs untraced and traced passes in pairs until the measured time
// is used up, alternating which goes first so a process's cold first pass
// does not bias either side. It returns the traced overhead (median over
// pairs of traced/untraced wall, minus 1) and the total traced wall time.
func (b *bench) pairs(untraced, traced func() (float64, error)) (overhead, tracedWall float64, err error) {
	var ratios []float64
	deadline := time.Now().Add(b.cfg.seconds)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		first, second := untraced, traced
		if k%2 == 1 {
			first, second = traced, untraced
		}
		w1, err := first()
		if err != nil {
			return 0, 0, err
		}
		w2, err := second()
		if err != nil {
			return 0, 0, err
		}
		if k%2 == 1 {
			w1, w2 = w2, w1
		}
		ratios = append(ratios, w2/w1)
		tracedWall += w2
	}
	return median(ratios) - 1, tracedWall, nil
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile of sorted xs (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// tail picks the highest of a few fixed percentiles that still has at
// least ten samples beyond it.
func tail(xs []float64) (p, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(s))*(1-p/100) >= 10 {
			return p, percentile(s, p), true
		}
	}
	return 0, 0, false
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel reads the host CPU model name.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
