package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
)

// maxBatch bounds how many sub-requests a Batcher packs into one
// MethodBatch envelope.
const maxBatch = 128

// Batcher wraps a Transport and coalesces concurrent calls to the
// same (address, method) pair into a single MethodBatch round-trip.
//
// It uses the leader/follower discipline of group commit rather than a
// timer: the first caller to find no flush in progress for its key
// becomes the leader and sends immediately, and every call that
// arrives while that flight is outstanding is packed into the next
// envelope. A call that finds nothing to share travels unwrapped, so
// sequential traffic has zero added latency and an unchanged wire
// shape; batching kicks in exactly when concurrency makes it pay.
//
// Batches are homogeneous per method so transport-level failure
// modelling (for example LocalTransport.SetApplyDown severing only
// replication traffic) keeps working on the envelope.
type Batcher struct {
	next Transport

	mu      sync.Mutex
	pending map[batchKey]*batchQueue

	calls     atomic.Int64 // logical calls through the batcher
	envelopes atomic.Int64 // MethodBatch envelopes sent
	batched   atomic.Int64 // calls that travelled inside an envelope
}

type batchKey struct {
	addr   string
	method string
}

type batchQueue struct {
	calls  []*batchCall
	leader bool
}

type batchCall struct {
	req  Request
	resp Response
	err  error
	done chan struct{}
}

// NewBatcher wraps next with request coalescing.
func NewBatcher(next Transport) *Batcher {
	return &Batcher{next: next, pending: make(map[batchKey]*batchQueue)}
}

// BatcherStats counts coalescing activity: Batched/Envelopes is the
// mean envelope size; Calls-Batched calls travelled alone.
type BatcherStats struct {
	Calls     int64
	Envelopes int64
	Batched   int64
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Calls:     b.calls.Load(),
		Envelopes: b.envelopes.Load(),
		Batched:   b.batched.Load(),
	}
}

// Call implements Transport. MethodBatch requests built by the caller
// pass straight through.
func (b *Batcher) Call(addr string, req Request) (Response, error) {
	b.calls.Add(1)
	if req.Method == MethodBatch {
		return b.next.Call(addr, req)
	}
	if IsControlMethod(req.Method) {
		// Control-plane probes bypass coalescing: wrapped in a
		// MethodBatch envelope they would lose their control
		// classification and queue behind data-plane work at a
		// saturated server instead of using its reserved headroom.
		return b.next.Call(addr, req)
	}
	key := batchKey{addr: addr, method: req.Method}
	c := &batchCall{req: req, done: make(chan struct{})}

	b.mu.Lock()
	q := b.pending[key]
	if q == nil {
		q = &batchQueue{}
		b.pending[key] = q
	}
	q.calls = append(q.calls, c)
	if q.leader {
		// A leader is flushing this key; it will pick us up.
		b.mu.Unlock()
		<-c.done
		return c.resp, c.err
	}
	q.leader = true
	b.mu.Unlock()

	for {
		b.mu.Lock()
		batch := q.calls
		q.calls = nil
		if len(batch) == 0 {
			q.leader = false
			delete(b.pending, key)
			b.mu.Unlock()
			break
		}
		if len(batch) > maxBatch {
			q.calls = batch[maxBatch:]
			batch = batch[:maxBatch]
		}
		b.mu.Unlock()
		b.flush(addr, batch)
	}
	<-c.done
	return c.resp, c.err
}

func (b *Batcher) flush(addr string, batch []*batchCall) {
	if len(batch) == 1 {
		c := batch[0]
		c.resp, c.err = b.next.Call(addr, c.req)
		close(c.done)
		return
	}
	subs := make([]Request, len(batch))
	for i, c := range batch {
		subs[i] = c.req
	}
	resp, err := b.next.Call(addr, Request{Method: MethodBatch, Batch: subs})
	if err == nil && len(resp.Batch) != len(batch) {
		if e := resp.Error(); e != nil {
			err = e
		} else {
			err = errors.New("rpc: batch response arity mismatch")
		}
	}
	if err != nil {
		for _, c := range batch {
			c.err = err
			close(c.done)
		}
		return
	}
	b.envelopes.Add(1)
	b.batched.Add(int64(len(batch)))
	for i, c := range batch {
		c.resp = resp.Batch[i]
		close(c.done)
	}
}
