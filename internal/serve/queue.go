package serve

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// queueItem is one queued job reference inside the priority heap.
type queueItem struct {
	id       string
	priority int
	seq      uint64
	index    int // heap position, maintained by the heap interface
}

// jobHeap orders queued jobs: higher priority first, FIFO (submission
// sequence) within a priority level — so priorities never starve equal
// peers and scheduling is deterministic for a deterministic submit order.
type jobHeap []*queueItem

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *jobHeap) Push(x any) {
	it := x.(*queueItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*h = old[:n-1]
	return it
}

// journalRecord is one line of the queue journal. submit records carry the
// full normalized spec so a restart can re-enqueue pending work; done and
// cancel records retire an id.
type journalRecord struct {
	Op       string   `json:"op"` // "submit", "done", "cancel"
	ID       string   `json:"id"`
	Seq      uint64   `json:"seq,omitempty"`
	Priority int      `json:"priority,omitempty"`
	Spec     *JobSpec `json:"spec,omitempty"`
	// State records how a retired job ended ("done", "failed"); informative
	// only — any retirement removes the id from the pending set.
	State string `json:"state,omitempty"`
}

// journal persists the queue as an append-only JSONL file so pending jobs
// survive a restart. A nil journal (no queue directory configured) is
// valid and makes every method a no-op: the queue is then memory-only.
type journal struct {
	path string
	f    *os.File
}

const journalName = "queue.journal"

// openJournal loads the journal in dir (creating the directory as
// needed), returns the still-pending submit records in submission order,
// and compacts the file down to exactly those records so it cannot grow
// without bound across restarts.
func openJournal(dir string) (*journal, []journalRecord, error) {
	if dir == "" {
		return nil, nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: queue dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	pending, err := loadPending(path)
	if err != nil {
		return nil, nil, err
	}

	// Compact: rewrite only the pending submits, atomically.
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return nil, nil, fmt.Errorf("serve: queue journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, rec := range pending {
		if err := writeRecord(w, rec); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, nil, err
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, nil, fmt.Errorf("serve: queue journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, fmt.Errorf("serve: queue journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, fmt.Errorf("serve: queue journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: queue journal: %w", err)
	}
	return &journal{path: path, f: f}, pending, nil
}

// loadPending replays the journal: submits minus dones/cancels, once per
// id, in the order each id was first submitted (the queue itself orders
// by priority and sequence number). A missing file is an empty queue. A
// corrupt trailing line (torn write) is tolerated; corruption earlier in
// the file is an error rather than silent job loss.
func loadPending(path string) ([]journalRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: queue journal: %w", err)
	}
	defer f.Close()

	submits := map[string]journalRecord{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	var parseErr error
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if parseErr != nil {
			// A bad line followed by a good one is real corruption, not a
			// torn tail.
			return nil, parseErr
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			parseErr = fmt.Errorf("serve: queue journal %s: corrupt record: %w", path, err)
			continue
		}
		switch rec.Op {
		case "submit":
			if rec.Spec == nil || rec.ID == "" {
				return nil, fmt.Errorf("serve: queue journal %s: submit record without spec or id", path)
			}
			if _, dup := submits[rec.ID]; !dup {
				order = append(order, rec.ID)
			}
			submits[rec.ID] = rec
		case "done", "cancel":
			delete(submits, rec.ID)
		default:
			return nil, fmt.Errorf("serve: queue journal %s: unknown op %q", path, rec.Op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: queue journal: %w", err)
	}
	var pending []journalRecord
	for _, id := range order {
		if rec, ok := submits[id]; ok {
			pending = append(pending, rec)
			// An id retired and then resubmitted is in order twice; it is
			// one pending job.
			delete(submits, id)
		}
	}
	return pending, nil
}

func writeRecord(w *bufio.Writer, rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: queue journal: %w", err)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("serve: queue journal: %w", err)
	}
	return nil
}

// append durably adds one record. Append-then-fsync per record keeps the
// implementation simple; the journal is written once per job state
// transition, far off the simulation hot path.
func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: queue journal: %w", err)
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("serve: queue journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: queue journal: %w", err)
	}
	return nil
}

func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}

// queue is the in-memory priority queue over job ids. All methods assume
// the caller holds the server mutex.
type queue struct {
	heap  jobHeap
	items map[string]*queueItem
}

func newQueue() *queue {
	return &queue{items: map[string]*queueItem{}}
}

func (q *queue) len() int { return len(q.heap) }

func (q *queue) push(id string, priority int, seq uint64) {
	it := &queueItem{id: id, priority: priority, seq: seq}
	q.items[id] = it
	heap.Push(&q.heap, it)
}

// pop removes and returns the highest-priority queued id, or "" when
// empty.
func (q *queue) pop() string {
	if len(q.heap) == 0 {
		return ""
	}
	it := heap.Pop(&q.heap).(*queueItem)
	delete(q.items, it.id)
	return it.id
}

// remove deletes a queued id (cancellation); returns false if absent.
func (q *queue) remove(id string) bool {
	it, ok := q.items[id]
	if !ok {
		return false
	}
	heap.Remove(&q.heap, it.index)
	delete(q.items, id)
	return true
}

// bump raises a queued id's priority (a coalesced resubmit at a higher
// priority should not wait at the original level). Lowering is ignored.
func (q *queue) bump(id string, priority int) {
	it, ok := q.items[id]
	if !ok || priority <= it.priority {
		return
	}
	it.priority = priority
	heap.Fix(&q.heap, it.index)
}
