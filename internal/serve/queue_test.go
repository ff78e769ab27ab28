package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQueueOrdering(t *testing.T) {
	q := newQueue()
	q.push("low-1", 0, 1)
	q.push("hi", 5, 2)
	q.push("low-2", 0, 3)
	q.push("mid", 2, 4)

	want := []string{"hi", "mid", "low-1", "low-2"}
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop order: got %s, want %s", got, w)
		}
	}
	if q.pop() != "" {
		t.Fatal("pop on empty queue returned an id")
	}
}

func TestQueueRemoveAndBump(t *testing.T) {
	q := newQueue()
	q.push("a", 0, 1)
	q.push("b", 0, 2)
	q.push("c", 0, 3)
	if !q.remove("b") {
		t.Fatal("remove failed for queued id")
	}
	if q.remove("b") {
		t.Fatal("remove succeeded twice")
	}
	q.bump("c", 7)
	q.bump("missing", 7) // no-op
	if got := q.pop(); got != "c" {
		t.Fatalf("bump did not raise priority: popped %s", got)
	}
	q.bump("a", -1) // lowering is ignored
	if got := q.pop(); got != "a" {
		t.Fatalf("want a, got %s", got)
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty: %d", q.len())
	}
}

func pendingIDs(recs []journalRecord) []string {
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	return ids
}

func TestJournalReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	j, pending, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has pending jobs: %v", pendingIDs(pending))
	}
	spec := simulateSpec("mcf")
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journalRecord{
		{Op: "submit", ID: "aaa", Seq: 1, Priority: 2, Spec: spec},
		{Op: "submit", ID: "bbb", Seq: 2, Spec: spec},
		{Op: "submit", ID: "ccc", Seq: 3, Spec: spec},
		{Op: "done", ID: "bbb", State: "done"},
		{Op: "cancel", ID: "ccc"},
	} {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay: only the unretired submit survives, with its metadata.
	j2, pending, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 1 || pending[0].ID != "aaa" {
		t.Fatalf("pending after replay = %v, want [aaa]", pendingIDs(pending))
	}
	if pending[0].Seq != 1 || pending[0].Priority != 2 || pending[0].Spec == nil {
		t.Fatalf("pending record lost metadata: %+v", pending[0])
	}

	// Compaction rewrote the file down to the single pending record.
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 1 {
		t.Fatalf("compacted journal has %d records, want 1:\n%s", n, b)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := simulateSpec("mcf")
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Op: "submit", ID: "aaa", Seq: 1, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn final write: half a JSON record, no newline.
	if _, err := f.WriteString(`{"op":"done","id":"aa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, pending, err := openJournal(dir)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	j2.Close()
	if len(pending) != 1 || pending[0].ID != "aaa" {
		t.Fatalf("pending = %v, want [aaa]", pendingIDs(pending))
	}
}

// TestJournalResubmitIsPendingOnce: a cancelled job resubmitted under its
// old id (the server admits failed and cancelled ids as new work) replays
// as one pending job carrying the resubmission's metadata, not two.
func TestJournalResubmitIsPendingOnce(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := simulateSpec("mcf")
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journalRecord{
		{Op: "submit", ID: "aaa", Seq: 1, Spec: spec},
		{Op: "submit", ID: "bbb", Seq: 2, Spec: spec},
		{Op: "cancel", ID: "aaa"},
		{Op: "submit", ID: "aaa", Seq: 3, Spec: spec},
	} {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, pending, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(pending) != 2 || pending[0].ID != "aaa" || pending[0].Seq != 3 || pending[1].ID != "bbb" {
		t.Fatalf("pending = %+v, want aaa (seq 3) and bbb once each", pending)
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	spec := simulateSpec("mcf")
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	content := `{"op":"submit","id":"aaa","seq":1,"spec":{"type":"simulate","cells":[{"workload":"mcf"}]}}
garbage not json
{"op":"done","id":"aaa","state":"done"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(dir); err == nil {
		t.Fatal("mid-file corruption silently accepted")
	}
}

func TestJournalRejectsUnknownOp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte(`{"op":"explode","id":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(dir); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("want unknown-op error, got %v", err)
	}
}

func TestNilJournalIsMemoryOnly(t *testing.T) {
	j, pending, err := openJournal("")
	if err != nil || j != nil || pending != nil {
		t.Fatalf("empty dir should be a nil journal: %v %v %v", j, pending, err)
	}
	if err := j.append(journalRecord{Op: "submit", ID: "x"}); err != nil {
		t.Fatal("nil journal append should be a no-op")
	}
	if err := j.Close(); err != nil {
		t.Fatal("nil journal close should be a no-op")
	}
}

func TestOpenJournalBadDir(t *testing.T) {
	// A regular file where the queue directory should be.
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(file); err == nil {
		t.Fatal("openJournal accepted a file as its directory")
	}
}
