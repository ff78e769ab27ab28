package checkpoint

import (
	"crypto/sha256"
	"reflect"
	"testing"
)

// fuzzKey is the key FuzzCheckpointFile decodes under. The checked-in seeds
// are files the store wrote under it, so they pass the key check and reach
// the integrity check and the snapshot decoder.
var fuzzKey = Key{Workload: "fuzz", Skip: 2000, Hash: sha256.Sum256([]byte("FuzzCheckpointFile"))}

// FuzzCheckpointFile feeds arbitrary bytes to the SPTCKPF1 checkpoint-file
// framing that Store.load reads. It must return an error or a snapshot,
// never panic. A file it accepts must round-trip: framing the snapshot
// again and decoding that gives a DeepEqual snapshot with the same Hash.
// The seeds under testdata/fuzz are real checkpoint files: a halted random
// program and aes-bitslice after a 2000-instruction skip.
func FuzzCheckpointFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := decodeFile(fuzzKey, b)
		if err != nil {
			return
		}
		enc, err := encodeFile(fuzzKey, snap)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeFile(fuzzKey, enc)
		if err != nil {
			t.Fatalf("re-framed checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(snap, back) {
			t.Fatal("re-framing changed the snapshot")
		}
		h1, err1 := snap.Hash()
		h2, err2 := back.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("hash not stable across the round trip: %x vs %x (%v, %v)", h1, h2, err1, err2)
		}
	})
}
