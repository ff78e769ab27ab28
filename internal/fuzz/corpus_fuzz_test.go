package fuzz

import (
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseCorpusEntry checks the .urisc corpus decoder: any input either
// fails to parse or yields an entry that survives a FormatCorpusEntry /
// ParseCorpusEntry round trip with the same name, metadata, code and data.
// Format always writes the name key, so the re-parsed metadata holds it
// even when the input had none. The entry point is not part of the corpus
// format (the disassembly does not carry .entry) and is not compared.
func FuzzParseCorpusEntry(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/fuzz/*.urisc")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus seeds: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseCorpusEntry("input", src)
		if err != nil {
			return
		}
		out := FormatCorpusEntry(e)
		got, err := ParseCorpusEntry("input", out)
		if err != nil {
			t.Fatalf("formatted entry does not parse: %v\n%s", err, out)
		}
		want := maps.Clone(e.Meta)
		want["name"] = e.Name
		if got.Name != e.Name {
			t.Fatalf("name %q became %q", e.Name, got.Name)
		}
		if !maps.Equal(got.Meta, want) {
			t.Fatalf("metadata %q became %q", want, got.Meta)
		}
		if !reflect.DeepEqual(got.Prog.Code, e.Prog.Code) {
			t.Fatalf("code changed:\n%s", out)
		}
		if !reflect.DeepEqual(got.Prog.Data, e.Prog.Data) {
			t.Fatalf("data changed:\n%s", out)
		}
	})
}
