package spt_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"spt"
)

// TestSampledWindowJobsBitIdentical is the parallel-window acceptance: one
// sampled simulation must produce a bit-identical Result (modulo host
// timing) whether its measured windows run serially or eight at a time.
func TestSampledWindowJobsBitIdentical(t *testing.T) {
	run := func(jobs int) *spt.Result {
		res, err := spt.Run("gcc", spt.Options{
			Scheme:          spt.SPTFull,
			MaxInstructions: 24_000,
			Sample:          spt.SampleSpec{Intervals: 6, Warmup: 400, Detail: 800},
			Jobs:            jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	a, b := *serial, *parallel
	a.Host, b.Host = spt.HostStats{}, spt.HostStats{}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sampled result differs between Jobs:1 and Jobs:8\nserial:   %+v\nparallel: %+v",
			serial.Sampled, parallel.Sampled)
	}
	ja, err := serial.Stats.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := parallel.Stats.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if ja != jb {
		t.Error("last-window stats dump differs between Jobs:1 and Jobs:8")
	}
	if parallel.Host.CPUSeconds <= 0 || parallel.Host.Seconds <= 0 {
		t.Errorf("host stats not populated: %+v", parallel.Host)
	}
}

// TestSampledWindowJobsViaEval checks the harness plumbing: a grid cell
// run with EvalOptions.WindowJobs matches a plain serial run of the same
// cell.
func TestSampledWindowJobsViaEval(t *testing.T) {
	job := spt.Job{
		Workload: "mcf", Scheme: spt.SPTFull, Model: spt.Futuristic, Width: 3,
		Budget: 12_000, Sample: spt.SampleSpec{Intervals: 4, Warmup: 300, Detail: 600},
	}
	res, err := spt.RunJobs([]spt.Job{job}, spt.EvalOptions{Jobs: 1, WindowJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := spt.Run(job.Workload, spt.Options{
		Scheme: job.Scheme, Model: job.Model, UntaintBroadcastWidth: job.Width,
		MaxInstructions: job.Budget, Sample: job.Sample,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := *res[job], *ref
	a.Host, b.Host = spt.HostStats{}, spt.HostStats{}
	if !reflect.DeepEqual(a, b) {
		t.Error("WindowJobs grid cell differs from a serial run of the same cell")
	}
}

// TestSampledCancellation is the cancellation regression: cancelling the
// run's context with a cause aborts in-flight windows promptly and
// surfaces that cause, for both the serial and the parallel window pool.
func TestSampledCancellation(t *testing.T) {
	cause := errors.New("operator hit ctrl-c")
	for _, jobs := range []int{1, 4} {
		ctx, cancel := context.WithCancelCause(context.Background())
		done := make(chan error, 1)
		go func() {
			// A budget large enough that the run cannot finish before the
			// cancellation lands.
			_, err := spt.Run("gcc", spt.Options{
				Scheme:          spt.SPTFull,
				MaxInstructions: 50_000_000,
				Sample:          spt.SampleSpec{Intervals: 100},
				Jobs:            jobs,
				Context:         ctx,
			})
			done <- err
		}()
		time.Sleep(30 * time.Millisecond)
		cancel(cause)
		select {
		case err := <-done:
			if !errors.Is(err, cause) {
				t.Errorf("Jobs:%d: cancelled run returned %v, want the cancellation cause", jobs, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("Jobs:%d: cancelled run did not return", jobs)
		}
		cancel(nil)
	}

	// A context cancelled before the run starts fails fast with its cause.
	pre, cancelPre := context.WithCancelCause(context.Background())
	cancelPre(cause)
	if _, err := spt.Run("gcc", spt.Options{
		MaxInstructions: 1_000_000,
		Sample:          spt.SampleSpec{Intervals: 4},
		Context:         pre,
	}); !errors.Is(err, cause) {
		t.Errorf("pre-cancelled run returned %v, want the cancellation cause", err)
	}
}

// TestSampledWalkerErrorSameAtAnyJobs: when the functional walk cannot
// reach a window (the program halts first), every Jobs value reports the
// serial run's error, and the earlier windows do not mask it.
func TestSampledWalkerErrorSameAtAnyJobs(t *testing.T) {
	const src = `
  movi r1, 2000
top:
  addi r1, r1, -1
  bne r1, r0, top
  halt
`
	var errs []string
	for _, jobs := range []int{0, 1, 4} {
		_, err := spt.RunAssembly("short", src, spt.Options{
			Scheme:          spt.SPTFull,
			MaxInstructions: 16_000,
			Sample:          spt.SampleSpec{Intervals: 8, Warmup: 100, Detail: 200},
			Jobs:            jobs,
		})
		if err == nil || !strings.Contains(err.Error(), "halted") {
			t.Fatalf("Jobs:%d: err = %v, want the walker's halted error", jobs, err)
		}
		errs = append(errs, err.Error())
	}
	for i, e := range errs[1:] {
		if e != errs[0] {
			t.Errorf("error differs across Jobs values:\n%q\n%q", errs[0], errs[i+1])
		}
	}
}
