package attack_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"spt/internal/attack"
	"spt/internal/fuzz"
	"spt/internal/isa"
	"spt/internal/pipeline"
)

// TestObservationTraceReusesCore guards the oracle's simulator pool: once
// warm, an ObservationTrace call must reset a pooled core instead of
// building a new one. One build allocates a whole memory hierarchy (the
// L3's line array alone is ~786 KB), so a median allocation far below that
// per call means the pool is in use.
func TestObservationTraceReusesCore(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	entries, err := fuzz.LoadCorpus("../../testdata/fuzz")
	if err != nil {
		t.Fatal(err)
	}
	prog := fuzz.PatchSecret(entries[0].Prog, fuzz.SecretA)
	run := func() {
		if _, err := attack.ObservationTrace(prog, pipeline.Futuristic, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	var ms runtime.MemStats
	deltas := make([]uint64, 20)
	for i := range deltas {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		deltas[i] = ms.TotalAlloc - before
	}
	slices.Sort(deltas)
	const limit = 256 << 10
	t.Logf("median allocation per call: %d bytes", deltas[len(deltas)/2])
	if med := deltas[len(deltas)/2]; med > limit {
		t.Fatalf("median allocation per ObservationTrace call is %d bytes, want <= %d: the pooled core is not reused", med, limit)
	}
}

// TestObservationTraceConcurrent runs oracle simulations from several
// goroutines at once, so pooled cores move between goroutines, and checks
// every trace against the same run made alone. Run it under -race.
func TestObservationTraceConcurrent(t *testing.T) {
	entries, err := fuzz.LoadCorpus("../../testdata/fuzz")
	if err != nil {
		t.Fatal(err)
	}
	var progs []*isa.Program
	for _, e := range entries {
		progs = append(progs, fuzz.PatchSecret(e.Prog, fuzz.SecretA), fuzz.PatchSecret(e.Prog, fuzz.SecretB))
	}
	want := make([][]string, len(progs))
	for i, p := range progs {
		if want[i], err = attack.ObservationTrace(p, pipeline.Spectre, nil); err != nil {
			t.Fatal(err)
		}
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, p := range progs {
					got, err := attack.ObservationTrace(p, pipeline.Spectre, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if !slices.Equal(got, want[i]) {
						t.Errorf("worker %d round %d: %s trace differs from the serial run", w, r, p.Name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
