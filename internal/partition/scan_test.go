package partition

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
)

// loadScanData writes n sequential keys through the router so each
// lands on its range's primary, then returns the sorted key list.
func loadScanData(t *testing.T, tc *testCluster, namespace string, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k-%04d", i))
		keys[i] = key
		if _, _, err := put(tc.router, namespace, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func checkOrdered(t *testing.T, recs []record.Record) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if bytes.Compare(recs[i-1].Key, recs[i].Key) >= 0 {
			t.Fatalf("scan out of order at %d: %q >= %q", i, recs[i-1].Key, recs[i].Key)
		}
	}
}

func TestScanParallelMatchesSequential(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2", "n3")
	m, _ := NewMap([]string{"n1"})
	for _, at := range []string{"k-0100", "k-0200", "k-0300", "k-0400", "k-0500", "k-0600", "k-0700"} {
		if err := m.Split([]byte(at)); err != nil {
			t.Fatal(err)
		}
	}
	nodes := []string{"n1", "n2", "n3"}
	for i, rng := range m.Ranges() {
		key := rng.Start
		if key == nil {
			key = []byte{}
		}
		m.SetReplicas(key, []string{nodes[i%3]})
	}
	tc.router.SetMap("ns", m)
	loadScanData(t, tc, "ns", 800)

	for _, limit := range []int{1, 37, 100, 101, 799, 800, 4000} {
		seq, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: limit, Policy: ReadPrimary, Parallelism: 1})
		if err != nil {
			t.Fatalf("sequential limit=%d: %v", limit, err)
		}
		par, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: limit, Policy: ReadPrimary, Parallelism: 8})
		if err != nil {
			t.Fatalf("parallel limit=%d: %v", limit, err)
		}
		want := limit
		if want > 800 {
			want = 800
		}
		if len(seq) != want || len(par) != want {
			t.Fatalf("limit=%d: sequential %d, parallel %d, want %d", limit, len(seq), len(par), want)
		}
		checkOrdered(t, par)
		for i := range seq {
			if !bytes.Equal(seq[i].Key, par[i].Key) {
				t.Fatalf("limit=%d: results diverge at %d: %q vs %q", limit, i, seq[i].Key, par[i].Key)
			}
		}
	}
}

func TestScanLimitCutoffAtRangeBoundaries(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	if err := m.Split([]byte("k-0050")); err != nil {
		t.Fatal(err)
	}
	m.SetReplicas([]byte("k-0099"), []string{"n2"})
	tc.router.SetMap("ns", m)
	keys := loadScanData(t, tc, "ns", 100)

	// Limits landing exactly on, just before, and just after the range
	// boundary must return exactly that many records, in order.
	for _, limit := range []int{49, 50, 51} {
		recs, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: limit, Policy: ReadPrimary})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != limit {
			t.Fatalf("limit=%d returned %d records", limit, len(recs))
		}
		checkOrdered(t, recs)
		if !bytes.Equal(recs[limit-1].Key, keys[limit-1]) {
			t.Fatalf("limit=%d last key %q, want %q", limit, recs[limit-1].Key, keys[limit-1])
		}
	}
}

func TestScanAdaptiveRefetchOnSkew(t *testing.T) {
	// Two ranges with heavily skewed population: the proportional
	// pushed-down limit truncates the first range's page, and the
	// gather loop must page on from the node's resume cursor instead of
	// silently under-filling.
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	if err := m.Split([]byte("k-0500")); err != nil {
		t.Fatal(err)
	}
	m.SetReplicas([]byte("k-0999"), []string{"n2"})
	tc.router.SetMap("ns", m)
	loadScanData(t, tc, "ns", 600) // 500 rows in range 1, 100 in range 2

	recs, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 550, Policy: ReadPrimary, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 550 {
		t.Fatalf("skewed scan returned %d records, want 550", len(recs))
	}
	checkOrdered(t, recs)
}

func TestScanFenceRetryRidesThroughHandoff(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	tc.router.SetMap("ns", m)
	loadScanData(t, tc, "ns", 50)

	// Fence the whole keyspace on n1 (as a migration's final drain
	// would), then lift it shortly after from another goroutine: the
	// scan must stall and then complete, never error.
	fence := func(on bool) {
		resp, err := tc.transport.Call("addr-n1", rpc.Request{
			Method: rpc.MethodRangeFence, Namespace: "ns", Fence: on,
		})
		if err != nil || resp.Error() != nil {
			t.Errorf("fence(%v): %v %v", on, err, resp.Error())
		}
	}
	fence(true)
	go func() {
		time.Sleep(30 * time.Millisecond)
		fence(false)
	}()
	start := time.Now()
	recs, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 100, Policy: ReadAny})
	if err != nil {
		t.Fatalf("scan across fenced range: %v", err)
	}
	if len(recs) != 50 {
		t.Fatalf("scan returned %d records, want 50", len(recs))
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatalf("scan returned in %v — did not wait for the fence to lift", time.Since(start))
	}
}

func TestScanFenceRetryFollowsFlip(t *testing.T) {
	// The donor stays fenced forever (it lost the range); the scan's
	// retry must pick up the flipped partition map and land on the new
	// holder.
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	tc.router.SetMap("ns", m)
	keys := loadScanData(t, tc, "ns", 40)

	// Copy the data to n2 (the migration recipient).
	var recs []record.Record
	for _, key := range keys {
		v, ver, found, err := tc.router.GetFrom("ns", "n1", key)
		if err != nil || !found {
			t.Fatalf("seed read: %v", err)
		}
		recs = append(recs, record.Record{Key: key, Value: v, Version: ver})
	}
	if err := tc.router.Apply("ns", "n2", recs); err != nil {
		t.Fatal(err)
	}

	resp, err := tc.transport.Call("addr-n1", rpc.Request{Method: rpc.MethodRangeFence, Namespace: "ns", Fence: true})
	if err != nil || resp.Error() != nil {
		t.Fatalf("fence: %v %v", err, resp.Error())
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.SetReplicas([]byte{}, []string{"n2"}) // the routing flip
	}()
	out, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 100, Policy: ReadAny})
	if err != nil {
		t.Fatalf("scan across flipping range: %v", err)
	}
	if len(out) != 40 {
		t.Fatalf("scan returned %d records, want 40", len(out))
	}
}

func TestScanCrashedPrimaryFailsOverToReplica(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1", "n2"})
	tc.router.SetMap("ns", m)
	keys := loadScanData(t, tc, "ns", 30)

	// Replicate to the secondary, then kill the primary: scans (even
	// primary-preferring ones) must fail over.
	var recs []record.Record
	for _, key := range keys {
		v, ver, _, err := tc.router.GetFrom("ns", "n1", key)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, record.Record{Key: key, Value: v, Version: ver})
	}
	if err := tc.router.Apply("ns", "n2", recs); err != nil {
		t.Fatal(err)
	}
	tc.transport.SetDown("addr-n1", true)

	for _, policy := range []ReadPolicy{ReadAny, ReadPrimary} {
		out, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 100, Policy: policy})
		if err != nil {
			t.Fatalf("policy %v: scan with crashed primary: %v", policy, err)
		}
		if len(out) != 30 {
			t.Fatalf("policy %v: scan returned %d records, want 30", policy, len(out))
		}
	}
}

func TestScanPushdownReachesNodes(t *testing.T) {
	// Wire-level check that projection and predicates travel with the
	// sub-scan requests: a recording transport inspects every
	// MethodScan.
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1"})
	m.Split([]byte("k-0015"))
	m.SetReplicas([]byte("k-0020"), []string{"n2"})

	var scans atomic.Int64
	rec := &recordingTransport{next: tc.transport, onScan: func(req rpc.Request) {
		scans.Add(1)
		if len(req.Projection) != 1 || req.Projection[0] != "name" {
			t.Errorf("scan request projection = %v", req.Projection)
		}
		if len(req.Preds) != 1 || req.Preds[0].Column != "age" {
			t.Errorf("scan request preds = %v", req.Preds)
		}
	}}
	router := NewRouter(rec, tc.dir)
	router.SetMap("ns", m)
	tc.router.SetMap("ns", m)
	// Decodable rows: a sub-scan that failed to decode would cut the
	// fan-out short before the second sub-scan is issued.
	for i := 0; i < 30; i++ {
		val, err := row.Encode(row.Row{"name": "n", "age": int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := put(tc.router, "ns", []byte(fmt.Sprintf("k-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}

	opts := ScanOptions{
		Limit:      100,
		Policy:     ReadPrimary,
		Projection: []string{"name"},
		Preds:      []rpc.ScanPred{{Column: "age", Op: rpc.PredGe, Value: []byte{0x10}}},
	}
	if _, err := router.ScanOpts("ns", nil, nil, opts); err != nil {
		t.Fatal(err)
	}
	if scans.Load() < 2 {
		t.Fatalf("expected >=2 sub-scans, saw %d", scans.Load())
	}
}

// TestScanDefaultParallelismBound: a scan that leaves Parallelism at 0
// over more ranges than DefaultScanParallelism fans out concurrently
// but never holds more than DefaultScanParallelism sub-scans in flight.
func TestScanDefaultParallelismBound(t *testing.T) {
	const ranges = 2 * DefaultScanParallelism
	tc := newTestCluster(t, "n1", "n2", "n3")
	m, _ := NewMap([]string{"n1"})
	for i := 1; i < ranges; i++ {
		if err := m.Split([]byte(fmt.Sprintf("k-%04d", i*10))); err != nil {
			t.Fatal(err)
		}
	}
	nodes := []string{"n1", "n2", "n3"}
	for i, rng := range m.Ranges() {
		key := rng.Start
		if key == nil {
			key = []byte{}
		}
		m.SetReplicas(key, []string{nodes[i%3]})
	}
	tc.router.SetMap("ns", m)
	loadScanData(t, tc, "ns", ranges*10)

	gate := &inflightTransport{next: tc.transport, hold: 5 * time.Millisecond}
	router := NewRouter(gate, tc.dir)
	router.SetMap("ns", m)
	recs, err := router.ScanOpts("ns", nil, nil, ScanOptions{Limit: ranges * 10, Policy: ReadPrimary})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != ranges*10 {
		t.Fatalf("scan returned %d records, want %d", len(recs), ranges*10)
	}
	peak := gate.peak.Load()
	if peak > DefaultScanParallelism {
		t.Fatalf("%d sub-scans in flight, bound is %d", peak, DefaultScanParallelism)
	}
	if peak < 2 {
		t.Fatalf("peak of %d sub-scans in flight: the scan never fanned out", peak)
	}
}

// inflightTransport holds every MethodScan for hold and records the
// peak number of scans in flight at once.
type inflightTransport struct {
	next     rpc.Transport
	hold     time.Duration
	inflight atomic.Int64
	peak     atomic.Int64
}

func (g *inflightTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if req.Method != rpc.MethodScan {
		return g.next.Call(addr, req)
	}
	n := g.inflight.Add(1)
	defer g.inflight.Add(-1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(g.hold)
	return g.next.Call(addr, req)
}

type recordingTransport struct {
	next   rpc.Transport
	onScan func(rpc.Request)
}

func (r *recordingTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if req.Method == rpc.MethodScan {
		r.onScan(req)
	}
	if req.Method == rpc.MethodBatch {
		for _, sub := range req.Batch {
			if sub.Method == rpc.MethodScan {
				r.onScan(sub)
			}
		}
	}
	return r.next.Call(addr, req)
}

func TestScanRejectsUnboundedLimit(t *testing.T) {
	tc := newTestCluster(t, "n1")
	m, _ := NewMap([]string{"n1"})
	tc.router.SetMap("ns", m)
	if _, err := tc.router.ScanOpts("ns", nil, nil, ScanOptions{Limit: 0}); err == nil {
		t.Fatal("unbounded scan accepted")
	}
}
