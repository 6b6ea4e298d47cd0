// Package replication implements SCADS's asynchronous update
// propagation (§3.3.2): every accepted write is enqueued once per
// secondary replica with a deadline derived from the namespace's
// declared staleness bound, and a pump drains the queue in deadline
// order. The deadline priority queue is the paper's central mechanism
// — "not only does the priority queue allow the system to complete
// important updates first, but it allows us to easily detect when it
// is in danger of getting behind schedule."
package replication

import (
	"container/heap"
	"sync"
	"time"

	"scads/internal/record"
)

// Update is one pending propagation of a record to one target replica.
type Update struct {
	Namespace string
	Rec       record.Record
	Target    string // node ID
	// Deadline is when the update must be applied for the namespace's
	// staleness bound to hold.
	Deadline time.Time
	// EnqueuedAt is when the write was accepted; staleness is measured
	// from here.
	EnqueuedAt time.Time

	Attempts int
}

// Order selects the queue discipline.
type Order int

const (
	// ByDeadline pops the most urgent update first (the SCADS design).
	ByDeadline Order = iota
	// FIFO pops in arrival order (the ablation baseline).
	FIFO
)

// Queue is a thread-safe priority queue of updates.
type Queue struct {
	order Order

	mu   sync.Mutex
	h    updateHeap
	seq  int64
	size int
}

// NewQueue returns an empty queue with the given discipline.
func NewQueue(order Order) *Queue {
	return &Queue{order: order}
}

// Push enqueues u.
func (q *Queue) Push(u Update) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	heap.Push(&q.h, queued{u: u, seq: q.seq, byDeadline: q.order == ByDeadline})
	q.size++
}

// Pop removes and returns the most urgent update. ok is false when the
// queue is empty.
func (q *Queue) Pop() (Update, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return Update{}, false
	}
	it := heap.Pop(&q.h).(queued)
	q.size--
	return it.u, true
}

// Len returns the number of pending updates.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// AtRisk counts pending updates whose deadline falls within margin of
// now — the "in danger of getting behind schedule" signal that feeds
// the director's provisioning decisions.
func (q *Queue) AtRisk(now time.Time, margin time.Duration) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	limit := now.Add(margin)
	n := 0
	for _, it := range q.h {
		if !it.u.Deadline.After(limit) {
			n++
		}
	}
	return n
}

// ForEach visits every pending update under the queue lock (heap
// order, not priority order). fn must not call back into the queue.
// The pump's flip-time Rebind uses this to clone in-range updates to
// replicas a migration just added.
func (q *Queue) ForEach(fn func(Update)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, it := range q.h {
		fn(it.u)
	}
}

type queued struct {
	u          Update
	seq        int64
	byDeadline bool
}

type updateHeap []queued

func (h updateHeap) Len() int { return len(h) }
func (h updateHeap) Less(i, j int) bool {
	if h[i].byDeadline {
		if !h[i].u.Deadline.Equal(h[j].u.Deadline) {
			return h[i].u.Deadline.Before(h[j].u.Deadline)
		}
	}
	return h[i].seq < h[j].seq
}
func (h updateHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *updateHeap) Push(x any)   { *h = append(*h, x.(queued)) }
func (h *updateHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
