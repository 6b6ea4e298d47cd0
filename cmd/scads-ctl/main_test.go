package main

import (
	"strings"
	"testing"

	"scads"

	"scads/internal/cluster"
	"scads/internal/record"
	"scads/internal/rpc"
	"scads/internal/storage"
)

// startNode boots a real TCP storage node and returns its address.
func startNode(t *testing.T) string {
	t.Helper()
	engine, err := storage.Open(storage.Options{NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	node := cluster.NewNode("test-node", engine)
	server := rpc.NewServer(node)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return addr
}

func seed(t *testing.T, addr string, keys ...string) {
	t.Helper()
	tr := rpc.NewTCPTransport()
	for i, k := range keys {
		resp, err := tr.Call(addr, rpc.Request{
			Method: rpc.MethodApply, Namespace: "tbl_users",
			Records: []record.Record{{Key: []byte(k), Value: []byte("v" + k), Version: uint64(i + 1)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if e := resp.Error(); e != nil {
			t.Fatal(e)
		}
	}
}

func TestCtlPingStatsGetScan(t *testing.T) {
	addr := startNode(t)
	seed(t, addr, "alice", "bob", "carol")
	tr := rpc.NewTCPTransport()

	if err := runOne(tr, addr, "ping", params{}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := runOne(tr, addr, "stats", params{}); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := runOne(tr, addr, "get", params{ns: "tbl_users", key: "alice", limit: 50}); err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := runOne(tr, addr, "scan", params{ns: "tbl_users", start: "a", limit: 50}); err != nil {
		t.Fatalf("scan: %v", err)
	}
}

func TestCtlDropRange(t *testing.T) {
	addr := startNode(t)
	seed(t, addr, "alice", "bob", "carol")
	tr := rpc.NewTCPTransport()
	if err := runOne(tr, addr, "droprange", params{ns: "tbl_users", start: "a", end: "c"}); err != nil {
		t.Fatalf("droprange: %v", err)
	}
	resp, err := tr.Call(addr, rpc.Request{
		Method: rpc.MethodScan, Namespace: "tbl_users", Limit: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Records) != 1 || string(resp.Records[0].Key) != "carol" {
		t.Fatalf("after droprange: %d records", len(resp.Records))
	}
}

func TestCtlArgValidation(t *testing.T) {
	addr := startNode(t)
	tr := rpc.NewTCPTransport()
	if err := runOne(tr, addr, "get", params{}); err == nil {
		t.Fatal("get without -ns/-key should fail")
	}
	if err := runOne(tr, addr, "scan", params{}); err == nil {
		t.Fatal("scan without -ns should fail")
	}
	if err := runOne(tr, addr, "bogus", params{}); err == nil ||
		!strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("bogus command error = %v", err)
	}
}

func TestCtlHexKeys(t *testing.T) {
	addr := startNode(t)
	seed(t, addr, "k")
	tr := rpc.NewTCPTransport()
	// "k" = 0x6b
	if err := runOne(tr, addr, "get", params{ns: "tbl_users", key: "6b", hex: true}); err != nil {
		t.Fatalf("hex get: %v", err)
	}
	if err := runOne(tr, addr, "get", params{ns: "tbl_users", key: "zz", hex: true}); err == nil {
		t.Fatal("invalid hex should fail")
	}
}

func TestCtlUnreachableNode(t *testing.T) {
	tr := rpc.NewTCPTransport()
	if err := runOne(tr, "127.0.0.1:1", "ping", params{}); err == nil {
		t.Fatal("ping to closed port should fail")
	}
}

func TestPrintable(t *testing.T) {
	if got := printable([]byte("hello")); got != "hello" {
		t.Errorf("printable(hello) = %q", got)
	}
	if got := printable([]byte{0x00, 0x41}); got != "0x0041" {
		t.Errorf("printable(binary) = %q", got)
	}
}

func TestCtlWatermarkAndFence(t *testing.T) {
	addr := startNode(t)
	seed(t, addr, "alice", "bob")
	tr := rpc.NewTCPTransport()

	if err := runOne(tr, addr, "watermark", params{ns: "tbl_users"}); err != nil {
		t.Fatalf("watermark: %v", err)
	}
	if err := runOne(tr, addr, "watermark", params{}); err == nil {
		t.Fatal("watermark without -ns should fail")
	}

	if err := runOne(tr, addr, "fence", params{ns: "tbl_users", start: "a", end: "c"}); err != nil {
		t.Fatalf("fence: %v", err)
	}
	// Writes inside the fence bounce with the migration fence error.
	write := rpc.Request{
		Method: rpc.MethodApply, Namespace: "tbl_users",
		Records: []record.Record{{Key: []byte("bob"), Value: []byte("x"), Version: 100}},
	}
	resp, err := tr.Call(addr, write)
	if err != nil {
		t.Fatal(err)
	}
	if !rpc.IsFenced(resp.Error()) {
		t.Fatalf("write through fence = %v", resp.Error())
	}
	if err := runOne(tr, addr, "unfence", params{ns: "tbl_users", start: "a", end: "c"}); err != nil {
		t.Fatalf("unfence: %v", err)
	}
	resp, err = tr.Call(addr, write)
	if err != nil || resp.Error() != nil {
		t.Fatalf("write after unfence: %v %v", err, resp.Error())
	}
	resp, err = tr.Call(addr, rpc.Request{Method: rpc.MethodGet, Namespace: "tbl_users", Key: []byte("bob")})
	if err != nil || string(resp.Value) != "x" {
		t.Fatalf("read after unfence: %v %q", err, resp.Value)
	}
}

// TestCtlRepairs queries a coordinator's admin listener — the same
// wire protocol as a storage node, served by Cluster.AdminHandler —
// and renders the self-healing loop's state.
func TestCtlRepairs(t *testing.T) {
	lc, err := scads.NewLocalCluster(2, scads.Config{ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	lc.RepairNow() // one sweep so the counters are non-zero

	server := rpc.NewServer(lc.AdminHandler())
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	tr := rpc.NewTCPTransport()

	if err := runOne(tr, addr, "repairs", params{}); err != nil {
		t.Fatalf("repairs: %v", err)
	}
	// The reply carries the rendered repair state.
	resp, err := tr.Call(addr, rpc.Request{Method: rpc.MethodRepairs})
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.Error(); e != nil {
		t.Fatal(e)
	}
	for _, want := range []string{"sweeps=1", "repairs:", "ranges:"} {
		if !strings.Contains(string(resp.Value), want) {
			t.Fatalf("repairs output missing %q:\n%s", want, resp.Value)
		}
	}
	// Ping distinguishes a coordinator from a storage node.
	pong, err := tr.Call(addr, rpc.Request{Method: rpc.MethodPing})
	if err != nil || string(pong.Value) != "coordinator" {
		t.Fatalf("admin ping = %q err=%v", pong.Value, err)
	}
	// A repairs query against a storage node fails cleanly.
	nodeAddr := startNode(t)
	if err := runOne(tr, nodeAddr, "repairs", params{}); err == nil {
		t.Fatal("repairs against a storage node should error")
	}
}
