package partition

import (
	"sync/atomic"
	"testing"
	"time"

	"scads/internal/record"
	"scads/internal/rpc"
)

// shedTransport rejects the first n calls of a given method with a
// classified overload response (a node whose handler bound is
// saturated), then delegates — the shape of a transient shed that a
// retry-after wait should absorb.
type shedTransport struct {
	next   rpc.Transport
	method string
	left   atomic.Int64
	sheds  atomic.Int64
}

func (s *shedTransport) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if req.Method == s.method && s.left.Add(-1) >= 0 {
		s.sheds.Add(1)
		return rpc.Response{
			ID:  req.ID,
			Err: rpc.ErrString(rpc.Overloaded(time.Millisecond, "test shed")),
		}, nil
	}
	return s.next.Call(addr, req)
}

// TestWriteWaitsOutOverloadedPrimary: an ApplyPrimary whose primary
// sheds the first attempts must honor the retry-after hint and land,
// not surface ErrOverloaded to the caller.
func TestWriteWaitsOutOverloadedPrimary(t *testing.T) {
	tc := newTestCluster(t, "n1")
	shed := &shedTransport{next: tc.transport, method: rpc.MethodApply}
	shed.left.Store(3)
	r := NewRouter(shed, tc.dir)
	m, _ := NewMap([]string{"n1"})
	r.SetMap("ns", m)

	recs := []record.Record{{Key: []byte("k"), Value: []byte("v"), Version: 1}}
	if _, err := r.ApplyPrimary("ns", []byte("k"), recs); err != nil {
		t.Fatalf("apply through transient overload: %v", err)
	}
	if got := shed.sheds.Load(); got != 3 {
		t.Fatalf("sheds consumed = %d, want 3", got)
	}
	if _, _, found, err := r.Get("ns", []byte("k"), ReadPrimary); err != nil || !found {
		t.Fatalf("write lost after overload retries: found=%v err=%v", found, err)
	}
}

// TestScanWaitsOutOverloadedReplica: a scan whose only replica sheds
// the first attempts retries under its budget and completes.
func TestScanWaitsOutOverloadedReplica(t *testing.T) {
	tc := newTestCluster(t, "n1")
	m, _ := NewMap([]string{"n1"})
	tc.router.SetMap("ns", m)
	loadScanData(t, tc, "ns", 20)

	shed := &shedTransport{next: tc.transport, method: rpc.MethodScan}
	shed.left.Store(2)
	r := NewRouter(shed, tc.dir)
	r.SetMap("ns", m)

	recs, err := r.ScanOpts("ns", nil, nil, ScanOptions{Limit: 100, Policy: ReadPrimary})
	if err != nil {
		t.Fatalf("scan through transient overload: %v", err)
	}
	if len(recs) != 20 {
		t.Fatalf("scan returned %d records, want 20", len(recs))
	}
	if shed.sheds.Load() == 0 {
		t.Fatal("shed transport never fired")
	}
}

// TestGetFailsOverFromOverloadedReplica: a point read against a shed
// replica fails over to the next replica instead of erroring — an
// overloaded node is treated like a down one for replica selection.
func TestGetFailsOverFromOverloadedReplica(t *testing.T) {
	tc := newTestCluster(t, "n1", "n2")
	m, _ := NewMap([]string{"n1", "n2"})
	tc.router.SetMap("ns", m)
	ver, _, err := put(tc.router, "ns", []byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	// Primary applies land on the primary only (replication is the
	// coordinator pump's job); seed the replica directly so failover
	// has somewhere to go.
	if err := tc.router.Apply("ns", "n2", []record.Record{{Key: []byte("k"), Value: []byte("v"), Version: ver}}); err != nil {
		t.Fatal(err)
	}

	// Shed every get aimed at the primary: only failover to the
	// second replica can succeed. ReadPrimary orders the shed replica
	// first deterministically.
	shed := &shedGetFirstReplica{next: tc.transport, shedAddr: "addr-n1"}
	r := NewRouter(shed, tc.dir)
	r.SetMap("ns", m)

	val, _, found, err := r.Get("ns", []byte("k"), ReadPrimary)
	if err != nil || !found {
		t.Fatalf("read did not fail over from overloaded replica: found=%v err=%v", found, err)
	}
	if string(val) != "v" {
		t.Fatalf("read returned %q, want v", val)
	}
	if shed.sheds.Load() == 0 {
		t.Fatal("first replica was never tried")
	}
}

// shedGetFirstReplica permanently sheds gets aimed at one address.
type shedGetFirstReplica struct {
	next     rpc.Transport
	shedAddr string
	sheds    atomic.Int64
}

func (s *shedGetFirstReplica) Call(addr string, req rpc.Request) (rpc.Response, error) {
	if req.Method == rpc.MethodGet && addr == s.shedAddr {
		s.sheds.Add(1)
		return rpc.Response{
			ID:  req.ID,
			Err: rpc.ErrString(rpc.Overloaded(time.Millisecond, "test shed")),
		}, nil
	}
	return s.next.Call(addr, req)
}
