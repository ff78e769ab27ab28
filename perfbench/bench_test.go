package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spt"
)

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs one tiny-size benchmark and returns its exit code, its
// standard output and the decoded result line.
func runTiny(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"--root", "..", "--size", "tiny", "--seconds", "0.01"}, args...)
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	return code, out.String(), res
}

// TestTinyWorkloadsEmitEveryMetric runs every workload at tiny size, with
// and without tracing, and checks the result line carries exactly the
// metrics BENCHMARK.json names, with their units, and that the
// workload-specific metrics are printed by name.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	extra := map[string][]string{
		"fig7-sampled": {"detail_kips", "eff_mips", "failed_ratio"},
		"long-prefix":  {"detail_kips", "eff_mips", "failed_ratio"},
		"campaign":     {"failed_ratio"},
		"serve-mix":    {"req_per_s", "miss_p50_ms", "miss_tail_ms", "hit_p50_ms", "failed_ratio"},
	}
	for name := range workloadDrivers {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				code, out, res := runTiny(t, "--workload", name, "--trace", trace)
				if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if trace == "0" {
					for _, m := range extra[name] {
						if !strings.Contains(out, "\nmetric "+m+" ") {
							t.Errorf("output does not print %s:\n%s", m, out)
						}
					}
				}
			})
		}
	}
}

// TestCorruptedReferenceFails flips one recorded digest and expects the
// run to fail its correctness gate and exit non-zero.
func TestCorruptedReferenceFails(t *testing.T) {
	ref, err := loadReference(filepath.Join("..", "perfbench", "reference.json"))
	if err != nil {
		t.Fatal(err)
	}
	key := fig7Spec(true).cellKey(true, fig7Spec(true).jobs()[0])
	d := []byte(ref.Digests[key])
	if len(d) == 0 {
		t.Fatalf("no reference digest for %s", key)
	}
	d[0] ^= 1
	ref.Digests[key] = string(d)
	// The tiny fig7-sampled run reads nothing under --root but the
	// reference, so a root holding only the corrupted copy suffices.
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ref.save(filepath.Join(root, "perfbench", "reference.json")); err != nil {
		t.Fatal(err)
	}
	code, out, res := runTiny(t, "--workload", "fig7-sampled", "--root", root)
	if code == 0 || res.Correct {
		t.Fatalf("corrupted digest passed: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "MISMATCH "+key) {
		t.Errorf("mismatch does not name %s:\n%s", key, out)
	}
}

// TestTracedGridMatchesUntraced checks the recomposed sampled driver
// reproduces spt.RunJobs cell for cell on a tiny grid.
func TestTracedGridMatchesUntraced(t *testing.T) {
	for _, g := range []gridSpec{fig7Spec(true), longPrefixSpec(true)} {
		jobs := g.jobs()
		res, err := spt.RunJobs(jobs, spt.EvalOptions{Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		outs, err := tracedGrid(tr, jobs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if got, want := outs[j].String(), outputOf(res[j]).String(); got != want {
				t.Errorf("%s: traced %s, untraced %s", j, got, want)
			}
		}
		p := tr.merge()
		if st := p.stat("checkpoint.materialize"); st.Calls != len(jobs)*g.sample.Intervals {
			t.Errorf("%s: %d materialize spans, want %d", g.name, st.Calls, len(jobs)*g.sample.Intervals)
		}
	}
}

// TestLayerMetricsMatchBenchmarkFile keeps the per-layer list in the code
// and BENCHMARK.json in the same order with the same units.
func TestLayerMetricsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	lm := layerMetrics()
	if len(lm) != len(bf.PerLayer) {
		t.Fatalf("code lists %d per-layer metrics, BENCHMARK.json %d", len(lm), len(bf.PerLayer))
	}
	for i, m := range lm {
		if bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d: code %s [%s], BENCHMARK.json %s [%s]", i, m.name, m.unit, bf.PerLayer[i].Name, bf.PerLayer[i].Unit)
		}
	}
}

// TestTallyCountsServeFailures checks that a refused request counts as
// failed, and that a served job ending failed is also a mismatch.
func TestTallyCountsServeFailures(t *testing.T) {
	b := &bench{out: &bytes.Buffer{}}
	miss, hit, _, _ := b.tally([]answer{
		{id: "a", outcome: "queued", ms: 2},
		{id: "b", outcome: "cached", ms: 1},
		{spec: 2, err: errors.New("submit refused: HTTP 429")},
		{id: "d", spec: 3, err: errors.New("job d ended failed"), ended: "failed"},
	})
	if b.attempted != 4 || b.failed != 2 || len(miss) != 1 || len(hit) != 1 {
		t.Errorf("attempted %d failed %d, %d misses %d hits; want 4, 2, 1, 1", b.attempted, b.failed, len(miss), len(hit))
	}
	if len(b.mismatches) != 1 || !strings.Contains(b.mismatches[0], "ended failed") {
		t.Errorf("mismatches %q, want one for the failed job", b.mismatches)
	}
}

// TestClockStaysWithinWall checks the steal-corrected pass time is
// positive and never longer than the wall time it was taken over.
func TestClockStaysWithinWall(t *testing.T) {
	t0 := time.Now()
	clk := startClock()
	time.Sleep(20 * time.Millisecond)
	got := clk.seconds()
	if wall := time.Since(t0).Seconds(); got <= 0 || got > wall {
		t.Errorf("clock read %gs over %gs of wall time", got, wall)
	}
	if s := stealSeconds(); s < 0 {
		t.Errorf("steal %gs", s)
	}
}
