package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/rpc"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanOp       spanKind = iota // one client op, on the client goroutine
	spanEnvelope                 // rpc.envelope: one Transport.Call below the batcher
	spanServe                    // node.serve: one frame through a node's handler
	spanSub                      // node.op: one sub-request the node executed
)

var spanKindNames = [...]string{"op", "rpc.envelope", "node.serve", "node.op"}

// nsClass is the namespace class of a request.
type nsClass uint8

const (
	nsNone nsClass = iota
	nsTable
	nsIndex
)

var nsClassNames = [...]string{"-", "tbl", "idx"}

func classify(ns string) nsClass {
	switch {
	case strings.HasPrefix(ns, "tbl."):
		return nsTable
	case strings.HasPrefix(ns, "idx."):
		return nsIndex
	}
	return nsNone
}

// rpcMethods indexes the wire methods a span can carry; index 0 is
// any method not listed.
var rpcMethods = [...]string{"other", rpc.MethodGet, rpc.MethodScan, rpc.MethodApply, rpc.MethodPut, rpc.MethodDelete, rpc.MethodPing}

func methodIndex(m string) uint8 {
	for i, name := range rpcMethods {
		if name == m {
			return uint8(i)
		}
	}
	return 0
}

// span is one recorded interval. For op spans method is the opKind;
// otherwise it indexes rpcMethods. subs counts the sub-requests of an
// envelope or frame.
type span struct {
	start  int64 // ns since the tracer's epoch
	dur    int64 // ns
	kind   spanKind
	method uint8
	class  nsClass
	subs   uint16
}

// tracer keeps spans in memory while active; they are aggregated and
// written out after the run.
type tracer struct {
	epoch  time.Time
	active atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (t *tracer) record(kind spanKind, start time.Time, dur time.Duration, method uint8, class nsClass, subs int) {
	s := span{start: int64(start.Sub(t.epoch)), dur: int64(dur), kind: kind, method: method, class: class, subs: uint16(min(subs, 1<<16-1))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// requestAttrs describes a request by its (first) sub-request: the
// batcher builds envelopes of one method.
func requestAttrs(req *rpc.Request) (method uint8, class nsClass, subs int) {
	if req.Method == rpc.MethodBatch {
		if len(req.Batch) == 0 {
			return 0, nsNone, 0
		}
		m, c, _ := requestAttrs(&req.Batch[0])
		return m, c, len(req.Batch)
	}
	return methodIndex(req.Method), classify(req.Namespace), 1
}

// tracedTransport records an rpc.envelope span around every call that
// reaches the wire.
type tracedTransport struct {
	next rpc.Transport
	t    *tracer
}

func (w *tracedTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if !w.t.active.Load() {
		return w.next.Call(addr, req)
	}
	start := time.Now()
	resp, err := w.next.Call(addr, req)
	dur := time.Since(start)
	m, c, n := requestAttrs(&req)
	w.t.record(spanEnvelope, start, dur, m, c, n)
	return resp, err
}

// tracedHandler records a node.serve span around every frame a node
// serves and a node.op span around each sub-request. Envelopes are
// unpacked here with rpc.ServeBatch, as cluster.Node does itself.
type tracedHandler struct {
	next rpc.Handler
	t    *tracer
}

func (h *tracedHandler) Serve(req rpc.Request) rpc.Response {
	if !h.t.active.Load() {
		return h.next.Serve(req)
	}
	start := time.Now()
	var resp rpc.Response
	if req.Method == rpc.MethodBatch {
		resp = rpc.ServeBatch(rpc.HandlerFunc(h.serveSub), req)
	} else {
		resp = h.serveSub(req)
	}
	dur := time.Since(start)
	m, c, n := requestAttrs(&req)
	h.t.record(spanServe, start, dur, m, c, n)
	return resp
}

func (h *tracedHandler) serveSub(req rpc.Request) rpc.Response {
	start := time.Now()
	resp := h.next.Serve(req)
	h.t.record(spanSub, start, time.Since(start), methodIndex(req.Method), classify(req.Namespace), 1)
	return resp
}

// spanTotals aggregates spans by layer.
type spanTotals struct {
	envelopes, envelopeNs int64
	frames, frameNs       int64
	subCount, subNs       [len(rpcMethods)]int64 // by rpcMethods index
	indexApplies          int64                  // apply sub-requests to idx. namespaces
}

func (t *tracer) totals() spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var a spanTotals
	for _, s := range t.spans {
		switch s.kind {
		case spanEnvelope:
			a.envelopes++
			a.envelopeNs += s.dur
		case spanServe:
			a.frames++
			a.frameNs += s.dur
		case spanSub:
			a.subCount[s.method]++
			a.subNs[s.method] += s.dur
			if s.class == nsIndex && rpcMethods[s.method] == rpc.MethodApply {
				a.indexApplies++
			}
		}
	}
	return a
}

// write dumps every span as CSV: kind, start and duration in
// microseconds since the tracer started, method, namespace class and
// sub-request count.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,start_us,dur_us,method,class,subs")
	t.mu.Lock()
	for _, s := range t.spans {
		method := rpcMethods[0]
		if s.kind == spanOp {
			method = opKindNames[s.method]
		} else if int(s.method) < len(rpcMethods) {
			method = rpcMethods[s.method]
		}
		fmt.Fprintf(w, "%s,%.3f,%.3f,%s,%s,%d\n", spanKindNames[s.kind],
			float64(s.start)/1e3, float64(s.dur)/1e3, method, nsClassNames[s.class], s.subs)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
