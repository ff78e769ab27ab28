package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"

	"spt"
)

// reference holds the recorded digests every run is checked against:
// one per grid cell of the sampled workloads and one per campaign report.
// A deliberate change to simulated results re-records them with
//
//	bash perfbench/run.sh --workload <name> --record [--size tiny]
//
// (campaign references are keyed by the campaign seed the run derives
// from --seed, so record every seed in campaignSeeds).
type reference struct {
	Engine  string            `json:"engine"`
	Digests map[string]string `json:"digests"`
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing reference digests %s: %w", path, err)
	}
	if r.Digests == nil {
		r.Digests = map[string]string{}
	}
	return &r, nil
}

func (r *reference) save(path string) error {
	r.Engine = engineVersion()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// check compares one digest with its recorded value, or records it.
func (b *bench) check(key, got string) {
	if b.cfg.record {
		b.ref.Digests[key] = got
		return
	}
	want, ok := b.ref.Digests[key]
	switch {
	case !ok:
		b.mismatch("%s: no recorded reference digest", key)
	case b.ref.Engine != engineVersion():
		b.mismatch("%s: reference recorded by %s, program is %s", key, b.ref.Engine, engineVersion())
	case want != got:
		b.mismatch("%s: digest %s, reference %s", key, got, want)
	}
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:12])
}

func engineVersion() string { return spt.EngineVersion }

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// gcMeter measures the garbage collector's share of process CPU time over
// an interval, from runtime/metrics.
type gcMeter struct{ gc, total float64 }

func readGC() gcMeter {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcMeter{s[0].Value.Float64(), s[1].Value.Float64()}
}

// share returns the GC's share of CPU time since m.
func (m gcMeter) share() float64 {
	now := readGC()
	if now.total <= m.total {
		return 0
	}
	return (now.gc - m.gc) / (now.total - m.total)
}
