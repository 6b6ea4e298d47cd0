package replication

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"scads/internal/clock"
	"scads/internal/record"
)

var t0 = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)

func upd(ns, target string, deadline time.Time) Update {
	return Update{Namespace: ns, Target: target, Deadline: deadline, EnqueuedAt: t0,
		Rec: record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}}
}

func TestQueueDeadlineOrder(t *testing.T) {
	q := NewQueue(ByDeadline)
	q.Push(upd("ns", "a", t0.Add(3*time.Second)))
	q.Push(upd("ns", "b", t0.Add(1*time.Second)))
	q.Push(upd("ns", "c", t0.Add(2*time.Second)))

	var got []string
	for {
		u, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, u.Target)
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"b", "c", "a"}) {
		t.Fatalf("pop order = %v", got)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue(FIFO)
	// Deadlines are inverted; FIFO must ignore them.
	q.Push(upd("ns", "a", t0.Add(3*time.Second)))
	q.Push(upd("ns", "b", t0.Add(1*time.Second)))
	q.Push(upd("ns", "c", t0.Add(2*time.Second)))
	var got []string
	for {
		u, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, u.Target)
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"a", "b", "c"}) {
		t.Fatalf("FIFO pop order = %v", got)
	}
}

func TestQueueTiesAreFIFO(t *testing.T) {
	q := NewQueue(ByDeadline)
	d := t0.Add(time.Second)
	for i := 0; i < 5; i++ {
		q.Push(upd("ns", fmt.Sprintf("t%d", i), d))
	}
	for i := 0; i < 5; i++ {
		u, _ := q.Pop()
		if u.Target != fmt.Sprintf("t%d", i) {
			t.Fatalf("tie order broken at %d: %s", i, u.Target)
		}
	}
}

func TestQueuePeekAndLen(t *testing.T) {
	q := NewQueue(ByDeadline)
	if q.Len() != 0 {
		t.Fatalf("Len on empty queue = %d", q.Len())
	}
	q.Push(upd("ns", "x", t0.Add(time.Second)))
	q.Push(upd("ns", "y", t0.Add(time.Minute)))
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestQueueAtRiskAndOverdue(t *testing.T) {
	q := NewQueue(ByDeadline)
	q.Push(upd("ns", "overdue", t0.Add(-time.Second)))
	q.Push(upd("ns", "soon", t0.Add(2*time.Second)))
	q.Push(upd("ns", "later", t0.Add(time.Hour)))
	if got := q.AtRisk(t0, 0); got != 1 {
		t.Fatalf("AtRisk(now, 0) = %d, want the one overdue update", got)
	}
	if got := q.AtRisk(t0, 5*time.Second); got != 2 {
		t.Fatalf("AtRisk = %d", got)
	}
}

// applySink records applied records, optionally failing some targets.
type applySink struct {
	mu      sync.Mutex
	applied map[string][]record.Record // target -> records
	fail    map[string]bool
	calls   int
}

func newApplySink() *applySink {
	return &applySink{applied: make(map[string][]record.Record), fail: make(map[string]bool)}
}

func (s *applySink) apply(ns, node string, recs []record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.fail[node] {
		return errors.New("injected failure")
	}
	s.applied[node] = append(s.applied[node], recs...)
	return nil
}

func (s *applySink) count(node string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.applied[node])
}

func TestPumpDeliversToAllTargets(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)

	rec := record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}
	p.Enqueue("ns", rec, []string{"n2", "n3"}, 10*time.Second)
	if n := p.Drain(10); n != 2 {
		t.Fatalf("Drain processed %d, want 2", n)
	}
	if sink.count("n2") != 1 || sink.count("n3") != 1 {
		t.Fatalf("targets got %d/%d records", sink.count("n2"), sink.count("n3"))
	}
	st := p.Stats()
	if st.Enqueued != 2 || st.Delivered != 2 || st.Violations != 0 || st.Pending != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestPumpCountsViolations(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"n2"}, time.Second)
	vc.Advance(5 * time.Second) // miss the deadline before draining
	p.Drain(1)
	if st := p.Stats(); st.Violations != 1 {
		t.Fatalf("Violations = %d, want 1", st.Violations)
	}
}

func TestPumpRetriesAndDrops(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	sink.fail["dead"] = true
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.MaxAttempts = 3
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"dead"}, time.Second)

	total := 0
	for i := 0; i < 10; i++ {
		total += p.Drain(10)
		vc.Advance(time.Second) // let retry backoffs elapse
	}
	if total != 3 {
		t.Fatalf("attempted %d deliveries, want MaxAttempts=3", total)
	}
	st := p.Stats()
	if st.Dropped != 1 || st.Failures != 3 || st.Delivered != 0 {
		t.Fatalf("Stats = %+v", st)
	}
	// Tracker must not leak: staleness returns to 0 after drop.
	if d := p.Tracker().Staleness("ns", "dead"); d != 0 {
		t.Fatalf("staleness after drop = %v", d)
	}
}

func TestPumpRetryDoesNotStarve(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	sink.fail["dead"] = true
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.MaxAttempts = 100
	// The dead target's update has the tightest deadline.
	p.Enqueue("ns", record.Record{Key: []byte("k1"), Version: 1}, []string{"dead"}, time.Millisecond)
	p.Enqueue("ns", record.Record{Key: []byte("k2"), Version: 2}, []string{"live"}, time.Hour)
	// A couple of drain rounds must still deliver to the live target.
	p.Drain(4)
	if sink.count("live") != 1 {
		t.Fatal("live target starved by retrying dead target")
	}
}

func TestPumpDeadlineOrderUnderBudget(t *testing.T) {
	// With a tiny drain budget, tight-bound updates must be delivered
	// first — the paper's core argument for the priority queue.
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	p.Enqueue("ns", record.Record{Key: []byte("loose"), Version: 1}, []string{"n"}, time.Hour)
	p.Enqueue("ns", record.Record{Key: []byte("tight"), Version: 2}, []string{"n"}, time.Second)
	p.Drain(1)
	sink.mu.Lock()
	first := string(sink.applied["n"][0].Key)
	sink.mu.Unlock()
	if first != "tight" {
		t.Fatalf("first delivered = %q, want tight-bound update", first)
	}
}

func TestTrackerStaleness(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)

	if d := p.Tracker().Staleness("ns", "n2"); d != 0 {
		t.Fatalf("initial staleness = %v", d)
	}
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"n2"}, time.Minute)
	vc.Advance(10 * time.Second)
	if d := p.Tracker().Staleness("ns", "n2"); d != 10*time.Second {
		t.Fatalf("staleness = %v, want 10s", d)
	}
	if d := p.Tracker().MaxStaleness("ns"); d != 10*time.Second {
		t.Fatalf("MaxStaleness = %v", d)
	}
	p.Drain(1)
	if d := p.Tracker().Staleness("ns", "n2"); d != 0 {
		t.Fatalf("staleness after delivery = %v", d)
	}
}

func TestTrackerOldestPendingWins(t *testing.T) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	q := NewQueue(FIFO) // control delivery order precisely
	p := NewPump(q, sink.apply, vc)

	p.Enqueue("ns", record.Record{Key: []byte("old"), Version: 1}, []string{"n"}, time.Hour)
	vc.Advance(30 * time.Second)
	p.Enqueue("ns", record.Record{Key: []byte("new"), Version: 2}, []string{"n"}, time.Hour)

	if d := p.Tracker().Staleness("ns", "n"); d != 30*time.Second {
		t.Fatalf("staleness = %v, want 30s (age of oldest)", d)
	}
	p.Drain(1) // delivers "old"
	if d := p.Tracker().Staleness("ns", "n"); d != 0 {
		t.Fatalf("staleness = %v, want 0 (only newest pending, enqueued now)", d)
	}
}

func TestPumpRunWorkers(t *testing.T) {
	rc := clock.NewReal()
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, rc)
	p.Run(2)
	for i := 0; i < 50; i++ {
		p.Enqueue("ns", record.Record{Key: []byte(fmt.Sprintf("k%d", i)), Version: uint64(i + 1)}, []string{"n"}, time.Minute)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.count("n") < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	if sink.count("n") != 50 {
		t.Fatalf("workers delivered %d/50", sink.count("n"))
	}
}

// Property: with a deadline queue, pops come out in non-decreasing
// deadline order.
func TestQuickDeadlineOrdering(t *testing.T) {
	f := func(offsets []int16) bool {
		q := NewQueue(ByDeadline)
		for _, off := range offsets {
			q.Push(upd("ns", "t", t0.Add(time.Duration(off)*time.Second)))
		}
		var prev time.Time
		first := true
		for {
			u, ok := q.Pop()
			if !ok {
				break
			}
			if !first && u.Deadline.Before(prev) {
				return false
			}
			prev, first = u.Deadline, false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: tracker staleness is zero exactly when all enqueued
// updates have been delivered.
func TestQuickTrackerBalance(t *testing.T) {
	f := func(nTargets uint8, bounds []uint8) bool {
		vc := clock.NewVirtual(t0)
		sink := newApplySink()
		p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
		targets := []string{"a", "b", "c"}[:nTargets%3+1]
		for i, b := range bounds {
			p.Enqueue("ns", record.Record{Key: []byte{byte(i)}, Version: uint64(i + 1)},
				targets, time.Duration(b)*time.Second)
		}
		vc.Advance(time.Second)
		if len(bounds) > 0 && p.Tracker().MaxStaleness("ns") == 0 {
			return false
		}
		for p.Drain(100) > 0 {
		}
		return p.Tracker().MaxStaleness("ns") == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue(ByDeadline)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(upd("ns", "t", t0.Add(time.Duration(i%1000)*time.Millisecond)))
		if i%2 == 1 {
			q.Pop()
		}
	}
}

func BenchmarkPumpDrain(b *testing.B) {
	vc := clock.NewVirtual(t0)
	sink := newApplySink()
	p := NewPump(NewQueue(ByDeadline), sink.apply, vc)
	rec := record.Record{Key: []byte("k"), Value: []byte("v"), Version: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Enqueue("ns", rec, []string{"n"}, time.Minute)
		p.Drain(1)
	}
}

func TestPumpAtRiskIncludesParked(t *testing.T) {
	vc := clock.NewVirtual(t0)
	q := NewQueue(ByDeadline)
	fail := func(ns, node string, recs []record.Record) error {
		return errors.New("severed link")
	}
	p := NewPump(q, fail, vc)
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"nodeB"}, 5*time.Second)
	p.Drain(10) // delivery fails, update parks for retry
	if got := q.AtRisk(vc.Now(), 10*time.Second); got != 0 {
		t.Fatalf("queue AtRisk = %d, want 0 (update is parked, not queued)", got)
	}
	if got := p.AtRisk(10 * time.Second); got != 1 {
		t.Fatalf("pump AtRisk = %d, want 1 (parked update within margin)", got)
	}
	// Outside the margin it is not yet at risk.
	if got := p.AtRisk(time.Second); got != 0 {
		t.Fatalf("pump AtRisk(1s) = %d, want 0", got)
	}
}

// TestRebindClonesPendingToAddedReplicas: a flip-time Rebind must
// duplicate every pending in-range update — queued or parked — to the
// replicas a migration just added, deduplicating multi-target
// enqueues, and leave out-of-range updates alone.
func TestRebindClonesPendingToAddedReplicas(t *testing.T) {
	vc := clock.NewVirtual(t0)
	var mu sync.Mutex
	delivered := map[string][]string{} // target -> keys
	failing := map[string]bool{}
	apply := func(ns, node string, recs []record.Record) error {
		mu.Lock()
		defer mu.Unlock()
		if failing[node] {
			return errors.New("down")
		}
		for _, r := range recs {
			delivered[node] = append(delivered[node], string(r.Key))
		}
		return nil
	}
	p := NewPump(NewQueue(ByDeadline), apply, vc)

	rec := func(key string, ver uint64) record.Record {
		return record.Record{Key: []byte(key), Value: []byte("v"), Version: ver}
	}
	// Multi-target enqueue of the same record: must clone once, not
	// once per original target.
	p.Enqueue("ns", rec("b", 1), []string{"n1", "n2"}, time.Minute)
	// Out of [a, c) range: not cloned.
	p.Enqueue("ns", rec("x", 2), []string{"n1"}, time.Minute)
	// Wrong namespace: not cloned.
	p.Enqueue("other", rec("b", 3), []string{"n1"}, time.Minute)
	// Parked update (delivery fails once): still visible to Rebind.
	mu.Lock()
	failing["n2"] = true
	mu.Unlock()
	p.Enqueue("ns", rec("a", 4), []string{"n2"}, time.Minute)
	p.Drain(10) // delivers the others; parks a/4 for n2
	mu.Lock()
	failing["n2"] = false
	mu.Unlock()

	if n := p.Rebind("ns", []byte("a"), []byte("c"), []string{"n3"}); n != 2 {
		t.Fatalf("Rebind cloned %d updates, want 2 (b/1 deduped + parked a/4)", n)
	}
	vc.Advance(time.Second) // backoff elapses
	p.Drain(10)
	mu.Lock()
	defer mu.Unlock()
	got := map[string]bool{}
	for _, k := range delivered["n3"] {
		got[k] = true
	}
	if len(delivered["n3"]) != 2 || !got["a"] || !got["b"] {
		t.Fatalf("n3 deliveries = %v, want exactly {a, b}", delivered["n3"])
	}
	if p.Stats().Pending != 0 {
		t.Fatalf("pending = %d after drain", p.Stats().Pending)
	}
}

// TestRebindSeesInflightUpdates: an update popped and mid-delivery
// during the Rebind scan is still cloned — the pump registers it as in
// flight before releasing the queue.
func TestRebindSeesInflightUpdates(t *testing.T) {
	vc := clock.NewVirtual(t0)
	entered := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	delivered := map[string]int{}
	apply := func(ns, node string, recs []record.Record) error {
		if node == "n1" {
			close(entered)
			<-release
		}
		mu.Lock()
		delivered[node]++
		mu.Unlock()
		return nil
	}
	p := NewPump(NewQueue(ByDeadline), apply, vc)
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"n1"}, time.Minute)
	done := make(chan struct{})
	go func() {
		p.Drain(1)
		close(done)
	}()
	<-entered // the update is in flight, the queue is empty
	if n := p.Rebind("ns", nil, nil, []string{"n3"}); n != 1 {
		t.Fatalf("Rebind cloned %d, want the in-flight update", n)
	}
	close(release)
	<-done
	p.Drain(1)
	mu.Lock()
	defer mu.Unlock()
	if delivered["n3"] != 1 {
		t.Fatalf("n3 deliveries = %d", delivered["n3"])
	}
}

// TestDroppedToCountsAbandonedDeliveries: the per-target drop counter
// is the repair manager's staleness criterion for returned nodes.
func TestDroppedToCountsAbandonedDeliveries(t *testing.T) {
	vc := clock.NewVirtual(t0)
	apply := func(ns, node string, recs []record.Record) error { return errors.New("down") }
	p := NewPump(NewQueue(ByDeadline), apply, vc)
	p.MaxAttempts = 1
	p.Enqueue("ns", record.Record{Key: []byte("k"), Version: 1}, []string{"n1", "n2"}, time.Minute)
	p.Drain(10)
	if got := p.DroppedTo("n1"); got != 1 {
		t.Fatalf("DroppedTo(n1) = %d", got)
	}
	if got := p.DroppedTo("n2"); got != 1 {
		t.Fatalf("DroppedTo(n2) = %d", got)
	}
	if got := p.DroppedTo("n3"); got != 0 {
		t.Fatalf("DroppedTo(n3) = %d", got)
	}
}
