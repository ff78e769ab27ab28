// Simulator-throughput benchmarks and tests for the perf reporting layer.
// BenchmarkCoreThroughput reports simulated millions of instructions per
// host second, per protection scheme. CI runs it with -benchtime=1x against
// the floors in .github/perf-floors.txt; meaningful measurements need the
// default benchtime on an idle machine. End-to-end performance is measured
// by the repository benchmark (BENCHMARK.json, bash perfbench/run.sh).
package spt_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"spt"
)

// BenchmarkCoreThroughput measures raw simulation speed for the three
// schemes spanning the simulator's cost range (no policy, STT's per-cycle
// recompute, full SPT). Reported metrics: simulated MIPS and host
// nanoseconds per simulated instruction.
func BenchmarkCoreThroughput(b *testing.B) {
	for _, scheme := range spt.PerfSchemes() {
		b.Run(string(scheme), func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				res, err := spt.Run("gcc", spt.Options{
					Scheme: scheme, Model: spt.Futuristic, MaxInstructions: 100_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.Instructions
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 && insts > 0 {
				b.ReportMetric(float64(insts)/sec/1e6, "sim-MIPS")
				b.ReportMetric(sec*1e9/float64(insts), "ns/sim-inst")
			}
		})
	}
}

// TestHostStatsPopulated checks that every run reports host-side
// throughput, and that the host fields never leak into StatsText (which
// golden fixtures compare byte-for-byte).
func TestHostStatsPopulated(t *testing.T) {
	res, err := spt.Run("xz", spt.Options{MaxInstructions: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Host.Seconds <= 0 || res.Host.SimKIPS <= 0 || res.Host.NsPerInstruction <= 0 {
		t.Fatalf("host stats not populated: %+v", res.Host)
	}
	if res.Host.CPUSeconds < res.Host.Seconds {
		t.Fatalf("CPUSeconds %.6f below wall Seconds %.6f for a serial run", res.Host.CPUSeconds, res.Host.Seconds)
	}
	for _, field := range []string{"host", "KIPS", "ns/inst"} {
		if containsFold(res.StatsText(), field) {
			t.Fatalf("StatsText leaks host-dependent field %q", field)
		}
	}
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j], sub[j]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// TestPerfReportDeterministic checks that the deterministic projection of
// two independent perf runs is byte-identical, and that host fields are
// actually zeroed by it (they differ run to run).
func TestPerfReportDeterministic(t *testing.T) {
	opt := spt.EvalOptions{Budget: 4_000, Workloads: []string{"xz"}}
	a, err := spt.RunPerf(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spt.RunPerf(opt)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.Deterministic().JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Deterministic().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if ja != jb {
		t.Fatalf("deterministic projections differ:\n%s\n---\n%s", ja, jb)
	}
	var parsed spt.PerfReport
	if err := json.Unmarshal([]byte(ja), &parsed); err != nil {
		t.Fatal(err)
	}
	for _, row := range parsed.Rows {
		if row.HostSeconds != 0 || row.SimKIPS != 0 || row.NsPerInstruction != 0 {
			t.Fatalf("host fields survive Deterministic(): %+v", row)
		}
	}
	for _, row := range a.Rows {
		if row.HostSeconds <= 0 {
			t.Fatalf("raw report missing host timing: %+v", row)
		}
	}
}

// TestRunPerfCancellationCause: a context cancelled with a cause before
// the suite starts stops it with that cause, as RunJobs and Run do, not
// with a bare context.Canceled.
func TestRunPerfCancellationCause(t *testing.T) {
	cause := errors.New("perf suite cancelled by caller")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err := spt.RunPerf(spt.EvalOptions{Budget: 4_000, Workloads: []string{"xz"}, Context: ctx})
	if !errors.Is(err, cause) {
		t.Fatalf("RunPerf on a cancelled context returned %v, want the cancellation cause", err)
	}
}
