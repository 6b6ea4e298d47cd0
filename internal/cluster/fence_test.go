package cluster

import (
	"fmt"
	"testing"

	"scads/internal/record"
	"scads/internal/rpc"
)

func TestFenceRejectsWritesInRangeOnly(t *testing.T) {
	n := newTestNode(t, "n1")
	const ns = "tbl_users"
	put := func(key string) error {
		resp := n.Serve(writeReq(n, ns, []byte(key), []byte("v")))
		return resp.Error()
	}

	resp := n.Serve(rpc.Request{
		Method: rpc.MethodRangeFence, Namespace: ns,
		Start: []byte("b"), End: []byte("d"), Fence: true,
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}

	if e := put("c"); !rpc.IsFenced(e) {
		t.Fatalf("in-fence put = %v, want fence rejection", e)
	}
	if e := put("a"); e != nil {
		t.Fatalf("out-of-fence put rejected: %v", e)
	}
	if e := put("d"); e != nil {
		t.Fatalf("put at exclusive end rejected: %v", e)
	}
	// Tombstones and multi-record groups bounce too.
	resp = n.Serve(writeReq(n, ns, []byte("bb"), nil))
	if !rpc.IsFenced(resp.Error()) {
		t.Fatalf("in-fence tombstone = %v", resp.Error())
	}
	resp = n.Serve(rpc.Request{Method: rpc.MethodApply, Namespace: ns, Records: []record.Record{
		{Key: []byte("a"), Value: []byte("x"), Version: 99},
		{Key: []byte("c"), Value: []byte("x"), Version: 99},
	}})
	if !rpc.IsFenced(resp.Error()) {
		t.Fatalf("apply group touching the fence = %v", resp.Error())
	}
	// Another namespace is unaffected.
	resp = n.Serve(writeReq(n, "tbl_other", []byte("c"), []byte("v")))
	if resp.Error() != nil {
		t.Fatalf("other namespace fenced: %v", resp.Error())
	}
	// Reads pass through.
	resp = n.Serve(rpc.Request{Method: rpc.MethodGet, Namespace: ns, Key: []byte("c")})
	if resp.Error() != nil {
		t.Fatalf("read through fence: %v", resp.Error())
	}

	// Batched sub-requests are checked individually.
	resp = n.Serve(rpc.Request{Method: rpc.MethodBatch, Batch: []rpc.Request{
		writeReq(n, ns, []byte("c"), []byte("v")),
		writeReq(n, ns, []byte("e"), []byte("v")),
	}})
	if !rpc.IsFenced(resp.Batch[0].Error()) || resp.Batch[1].Error() != nil {
		t.Fatalf("batch = [%v, %v]", resp.Batch[0].Error(), resp.Batch[1].Error())
	}

	// Lift: writes flow again; lifting twice is harmless.
	for i := 0; i < 2; i++ {
		resp = n.Serve(rpc.Request{
			Method: rpc.MethodRangeFence, Namespace: ns,
			Start: []byte("b"), End: []byte("d"), Fence: false,
		})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
	}
	if e := put("c"); e != nil {
		t.Fatalf("put after unfence: %v", e)
	}
	if st := n.Serve(rpc.Request{Method: rpc.MethodStats}); st.Fenced != 0 {
		t.Fatal("fence count nonzero after lift")
	}
}

func TestRangeSnapshotAndDelta(t *testing.T) {
	n := newTestNode(t, "n1")
	const ns = "tbl_users"
	for i := 0; i < 25; i++ {
		resp := n.Serve(writeReq(n, ns, []byte(fmt.Sprintf("k%02d", i)), []byte("v")))
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
	}
	// Deleted keys ride the snapshot as tombstones.
	if resp := n.Serve(writeReq(n, ns, []byte("k03"), nil)); resp.Error() != nil {
		t.Fatal(resp.Error())
	}

	// Page the snapshot.
	var got []record.Record
	var epoch, wm uint64
	cur := []byte(nil)
	for page := 0; ; page++ {
		resp := n.Serve(rpc.Request{Method: rpc.MethodRangeSnapshot, Namespace: ns, Start: cur, Limit: 10})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
		if page == 0 {
			epoch, wm = resp.Epoch, resp.Watermark
		}
		got = append(got, resp.Records...)
		if len(resp.Records) < 10 {
			break
		}
		cur = append(resp.Records[len(resp.Records)-1].Key, 0x00)
	}
	if len(got) != 25 {
		t.Fatalf("snapshot carries %d records, want 25 (incl. tombstone)", len(got))
	}
	tombs := 0
	for _, r := range got {
		if r.Tombstone {
			tombs++
		}
	}
	if tombs != 1 {
		t.Fatalf("snapshot carries %d tombstones, want 1", tombs)
	}

	// Writes after the snapshot baseline surface in the delta.
	if resp := n.Serve(writeReq(n, ns, []byte("k01"), []byte("v2"))); resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	resp := n.Serve(rpc.Request{Method: rpc.MethodRangeDelta, Namespace: ns, Epoch: epoch, Since: wm, Limit: 100})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if len(resp.Records) != 1 || string(resp.Records[0].Value) != "v2" {
		t.Fatalf("delta = %+v", resp.Records)
	}

	// An unusable baseline reports a snapshot gap.
	resp = n.Serve(rpc.Request{Method: rpc.MethodRangeDelta, Namespace: ns, Epoch: epoch + 1, Since: wm})
	if !rpc.IsSnapshotGap(resp.Error()) {
		t.Fatalf("bad epoch delta = %v, want snapshot gap", resp.Error())
	}

	// Limit -1: watermark probe without records (operator tooling).
	resp = n.Serve(rpc.Request{Method: rpc.MethodRangeSnapshot, Namespace: ns, Limit: -1})
	if resp.Error() != nil || len(resp.Records) != 0 || resp.Watermark == 0 {
		t.Fatalf("watermark probe = %+v", resp)
	}
}

func TestUnfenceSubtractsRange(t *testing.T) {
	n := newTestNode(t, "n1")
	const ns = "tbl_users"
	put := func(key string) error {
		resp := n.Serve(writeReq(n, ns, []byte(key), []byte("v")))
		return resp.Error()
	}
	// Fence the whole keyspace, then lift only [b, m): the remainder
	// pieces stay fenced.
	n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, Fence: true})
	n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, Start: []byte("b"), End: []byte("m"), Fence: false})

	if e := put("c"); e != nil {
		t.Fatalf("put inside lifted span: %v", e)
	}
	if e := put("a"); !rpc.IsFenced(e) {
		t.Fatalf("left remainder unfenced: %v", e)
	}
	if e := put("x"); !rpc.IsFenced(e) {
		t.Fatalf("right remainder unfenced: %v", e)
	}
	if st := n.Serve(rpc.Request{Method: rpc.MethodStats}); st.Fenced != 2 {
		t.Fatalf("fence count = %d, want 2 remainder pieces", st.Fenced)
	}
	// Lifting the remainders opens everything.
	n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, End: []byte("b"), Fence: false})
	n.Serve(rpc.Request{Method: rpc.MethodRangeFence, Namespace: ns, Start: []byte("m"), Fence: false})
	if e := put("a"); e != nil {
		t.Fatalf("put after lifting remainders: %v", e)
	}
	if st := n.Serve(rpc.Request{Method: rpc.MethodStats}); st.Fenced != 0 {
		t.Fatalf("fence count = %d after lifting everything", st.Fenced)
	}
}
