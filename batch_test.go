package scads

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestInsertBatchAndGetMulti exercises the batched public hot path
// end to end: a bulk insert lands through per-node multi-record
// applies, index maintenance keeps declared queries correct, and
// GetMulti answers positionally.
func TestInsertBatchAndGetMulti(t *testing.T) {
	lc, err := NewLocalCluster(4, Config{ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}

	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{"id": fmt.Sprintf("user%03d", i), "name": fmt.Sprintf("N%03d", i), "birthday": i%365 + 1}
	}
	if err := lc.InsertBatch("users", rows); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Every row visible through the ordinary read path.
	for i := 0; i < 100; i += 7 {
		r, found, err := lc.Get("users", Row{"id": fmt.Sprintf("user%03d", i)})
		if err != nil || !found {
			t.Fatalf("user%03d: found=%v err=%v", i, found, err)
		}
		if r["name"] != fmt.Sprintf("N%03d", i) {
			t.Fatalf("user%03d name = %v", i, r["name"])
		}
	}

	// GetMulti: positional hits and misses.
	pks := []Row{
		{"id": "user005"},
		{"id": "no-such-user"},
		{"id": "user099"},
	}
	got, found, err := lc.GetMulti("users", pks)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || found[1] || !found[2] {
		t.Fatalf("found = %v, want [true false true]", found)
	}
	if got[0]["name"] != "N005" || got[2]["name"] != "N099" {
		t.Fatalf("rows = %v / %v", got[0], got[2])
	}

	// Declared queries still work over batch-inserted data (the
	// asynchronous index maintenance path ran for each row).
	if err := lc.InsertBatch("friendships", []Row{
		{"f1": "user001", "f2": "user002"},
		{"f1": "user001", "f2": "user003"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	res, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "user001"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("query over batch-inserted rows returned %d rows, want 2", len(res))
	}
}

// TestInsertBatchRetiresOldIndexEntries: overwriting a row through
// InsertBatch must retire index entries derived from the old image,
// exactly like Insert.
func TestInsertBatchRetiresOldIndexEntries(t *testing.T) {
	lc, err := NewLocalCluster(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("users", Row{"id": "u1", "name": "A", "birthday": 10}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Insert("friendships", Row{"f1": "probe", "f2": "u1"}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Move u1's birthday via the batched path; the birthday-ordered
	// index for probe's friends must reflect only the new value.
	if err := lc.InsertBatch("users", []Row{{"id": "u1", "name": "A", "birthday": 200}}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	res, err := lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "probe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d rows, want 1 (old index entry retired)", len(res))
	}
	if res[0]["birthday"] != int64(200) {
		t.Fatalf("birthday = %v, want 200", res[0]["birthday"])
	}

	// Duplicate primary keys inside one batch: the later row must see
	// the earlier one as its old image, so only the final birthday
	// survives in the index.
	if err := lc.InsertBatch("users", []Row{
		{"id": "u1", "name": "A", "birthday": 50},
		{"id": "u1", "name": "A", "birthday": 300},
	}); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	res, err = lc.Query("friendsWithUpcomingBirthdays", map[string]any{"user": "probe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("duplicate-key batch left %d index rows, want 1", len(res))
	}
	if res[0]["birthday"] != int64(300) {
		t.Fatalf("birthday = %v, want 300", res[0]["birthday"])
	}
}

// TestBatchingCoalescesUnderConcurrency: concurrent ordinary reads
// through the coordinator should produce at least some shared
// round-trips via the transport batcher, with every answer correct.
func TestBatchingCoalescesUnderConcurrency(t *testing.T) {
	lc, err := NewLocalCluster(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.DefineSchema(socialDDL); err != nil {
		t.Fatal(err)
	}
	// Give each transport call a realistic service time so concurrent
	// requests actually overlap and the coalescing window opens.
	lc.Transport.Clock = lc.Clock()
	lc.Transport.Latency = 200 * time.Microsecond
	const n = 50
	for i := 0; i < n; i++ {
		if err := lc.Insert("users", Row{"id": fmt.Sprintf("u%03d", i), "name": "N", "birthday": 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.FlushAll(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("u%03d", (w*37+i)%n)
				r, found, err := lc.Get("users", Row{"id": id})
				if err != nil || !found || r["id"] != id {
					t.Errorf("get %s: %v found=%v", id, err, found)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := lc.Stats()
	if st.Batching.Calls == 0 {
		t.Fatal("batcher saw no traffic")
	}
	if st.Batching.Envelopes == 0 {
		t.Fatal("no requests coalesced despite 8 concurrent readers over a slow transport")
	}
	t.Logf("batching: %d calls, %d envelopes, %d coalesced",
		st.Batching.Calls, st.Batching.Envelopes, st.Batching.Batched)
}
