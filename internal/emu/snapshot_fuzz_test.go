package emu

import (
	"reflect"
	"testing"
)

// FuzzUnmarshalSnapshot feeds arbitrary bytes to the SPTSNAP1 decoder. It
// must return an error or a snapshot, never panic. A snapshot it accepts
// must round-trip: re-encoding it with MarshalBinary and decoding again
// gives a DeepEqual snapshot with the same Hash. The seeds under
// testdata/fuzz are real snapshots: a halted random program and
// aes-bitslice after 2000 instructions.
func FuzzUnmarshalSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := UnmarshalSnapshot(b)
		if err != nil {
			return
		}
		enc, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(snap, back) {
			t.Fatal("re-encoding changed the snapshot")
		}
		h1, err1 := snap.Hash()
		h2, err2 := back.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("hash not stable across the round trip: %x vs %x (%v, %v)", h1, h2, err1, err2)
		}
	})
}
