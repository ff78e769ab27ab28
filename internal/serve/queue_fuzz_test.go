package serve

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// encodeJournal renders records exactly as the compacted journal holds them.
func encodeJournal(t *testing.T, recs []journalRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, rec := range recs {
		if err := writeRecord(w, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzJournalReplay feeds arbitrary bytes to the queue-journal replay that
// every server start runs. loadPending must return an error or a pending
// list, never panic; the list names each job once; and a list it accepts,
// rewritten with writeRecord (as compaction does) and replayed, must come
// back unchanged. Records compare by their journal encoding: JSON cannot
// tell an omitted slice from an empty one, and neither can anything that
// reads the journal. The seeds under testdata/fuzz are journals a server
// wrote: mixed job types with a cancel and a completion, the same with a
// torn last line, and a cancelled job resubmitted under its old id.
func FuzzJournalReplay(f *testing.F) {
	// Inputs run one at a time per process, so they can share one file.
	path := filepath.Join(f.TempDir(), journalName)
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		pending, err := loadPending(path)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, rec := range pending {
			if rec.Op != "submit" || rec.ID == "" || rec.Spec == nil {
				t.Fatalf("replay returned a non-submit or incomplete record: %+v", rec)
			}
			if seen[rec.ID] {
				t.Fatalf("replay returned job %s twice", rec.ID)
			}
			seen[rec.ID] = true
		}

		enc := encodeJournal(t, pending)
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := loadPending(path)
		if err != nil {
			t.Fatalf("rewritten journal does not replay: %v", err)
		}
		if got := encodeJournal(t, again); !bytes.Equal(got, enc) {
			t.Fatalf("rewrite and replay changed the pending list:\nbefore: %s\nafter:  %s", enc, got)
		}
	})
}
