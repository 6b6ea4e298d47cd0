package scads

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"
	"time"

	"scads/internal/admission"
	"scads/internal/consistency"
	"scads/internal/partition"
	"scads/internal/planner"
	"scads/internal/query"
	"scads/internal/record"
	"scads/internal/row"
	"scads/internal/rpc"
)

// Insert stores a new row (or fully replaces an existing one) in a
// table, honouring the table's declared write-consistency mode, and
// schedules asynchronous index maintenance and replication.
func (c *Cluster) Insert(table string, r row.Row) error {
	_, err := c.insertAs(table, r, "")
	return err
}

// insertAs is Insert accounted to a tenant (InsertSession routes the
// session's bound tenant here; plain Insert uses the default tenant).
// It returns the version assigned to the write, the session floor for
// read-your-writes.
func (c *Cluster) insertAs(table string, r row.Row, tenant string) (uint64, error) {
	rows := []row.Row{r}
	return c.admitted(table, rows, tenant, func() (uint64, error) { return c.upsert(table, rows) })
}

// Update applies a full-row write with the same semantics as Insert
// (SCADS rows are documents; partial updates go through UpdateFunc).
func (c *Cluster) Update(table string, r row.Row) error {
	return c.Insert(table, r)
}

// InsertBatch stores many rows in one coordinator pass: one admission
// at the batch's row count, current row images fetched with one
// batched read per node, and the new records delivered as one
// multi-record apply per primary (one RPC, one WAL write, and — on
// engines with synchronous writes — one shared group-commit fsync).
// Replication and index maintenance follow per row exactly as for
// Insert; tables declaring serializable or merge writes take the
// per-row conflict-aware path.
func (c *Cluster) InsertBatch(table string, rows []row.Row) error {
	if len(rows) == 0 {
		return nil
	}
	_, err := c.admitted(table, rows, "", func() (uint64, error) { return c.upsert(table, rows) })
	return err
}

// UpdateFunc performs an atomic read-modify-write of the row with the
// given primary key: fn receives the current row (nil if absent) and
// returns the replacement (nil means delete). Under the Serializable
// write mode this is the paper's "writes must be serializable, as in a
// traditional RDBMS"; under other modes it is still atomic with
// respect to other UpdateFunc calls through this coordinator.
func (c *Cluster) UpdateFunc(table string, pk row.Row, fn func(cur row.Row) (row.Row, error)) error {
	_, err := c.admitted(table, []row.Row{pk}, "", func() (uint64, error) {
		t, key, err := c.tableKey(table, pk)
		if err != nil {
			return 0, err
		}
		return c.readModifyWrite(t, key, func(cur row.Row) (row.Row, error) {
			next, err := fn(cur)
			if err != nil || next == nil {
				return nil, err
			}
			return c.normalizeRow(t, next)
		})
	})
	return err
}

// Delete tombstones the row with the given primary key.
func (c *Cluster) Delete(table string, pk row.Row) error {
	_, err := c.deleteAs(table, pk, "")
	return err
}

// deleteAs is Delete accounted to a tenant (DeleteSession routes the
// session's bound tenant here). It returns the tombstone's version (0
// when the row did not exist and nothing was written).
func (c *Cluster) deleteAs(table string, pk row.Row, tenant string) (uint64, error) {
	return c.admitted(table, []row.Row{pk}, tenant, func() (uint64, error) {
		t, key, err := c.tableKey(table, pk)
		if err != nil {
			return 0, err
		}
		return c.readModifyWrite(t, key, func(row.Row) (row.Row, error) { return nil, nil })
	})
}

// admitted runs write through the admission controller at a cost of
// one per row and records its latency. Shed writes still record their
// load against the balancer's tracker, so sustained skew triggers
// rebalancing instead of vanishing behind the front door.
func (c *Cluster) admitted(table string, rows []row.Row, tenant string, write func() (uint64, error)) (uint64, error) {
	start := c.clk.Now()
	var ver uint64
	release, err := c.admit(tenant, admission.OpWrite, float64(len(rows)))
	if err == nil {
		ver, err = write()
		release()
	} else if t, terr := c.tableDef(table); terr == nil {
		ns := planner.TableNamespace(table)
		if m, ok := c.router.Map(ns); ok {
			for _, r := range rows {
				if key, kerr := pkKey(t, r); kerr == nil {
					c.loads.Record(ns, m.Lookup(key).Start, key)
				}
			}
		}
	}
	c.record(start, err)
	return ver, err
}

// tableKey resolves a table and the storage key of a primary key.
func (c *Cluster) tableKey(table string, pk row.Row) (*query.TableDef, []byte, error) {
	t, err := c.tableDef(table)
	if err != nil {
		return nil, nil, err
	}
	key, err := pkKey(t, pk)
	return t, key, err
}

// upsert writes full rows under the table's write mode and returns the
// version assigned to the last one. Last-write-wins takes no
// serializer: it reads every row's current image (the old image index
// maintenance retires) and applies the batch in one pass. Serializable
// and merge writes need the current value atomically, so each row is
// a read-modify-write under the serializer.
func (c *Cluster) upsert(table string, rows []row.Row) (uint64, error) {
	t, err := c.tableDef(table)
	if err != nil {
		return 0, err
	}
	changes := make([]change, len(rows))
	for i, r := range rows {
		nr, err := c.normalizeRow(t, r)
		if err != nil {
			return 0, err
		}
		key, err := pkKey(t, nr)
		if err != nil {
			return 0, err
		}
		changes[i] = change{key: key, newRow: nr}
	}
	spec := c.specFor(table)
	if spec.Write != consistency.Serializable && spec.Write != consistency.MergeFunction {
		if err := c.readOldImages(planner.TableNamespace(table), changes); err != nil {
			return 0, err
		}
		return c.applyChanges(t, changes)
	}
	var ver uint64
	for _, ch := range changes {
		ver, err = c.readModifyWrite(t, ch.key, func(cur row.Row) (row.Row, error) {
			if spec.Write == consistency.MergeFunction && cur != nil {
				return c.mergeRows(spec.MergeName, cur, ch.newRow)
			}
			return ch.newRow, nil
		})
		if err != nil {
			return 0, err
		}
	}
	return ver, nil
}

// readModifyWrite atomically replaces the row at key with fn(current)
// under the serializer: fn receives the current row (nil if absent)
// and returns the replacement, nil to delete. Deleting a missing row
// writes nothing and returns version 0.
func (c *Cluster) readModifyWrite(t *query.TableDef, key []byte, fn func(cur row.Row) (row.Row, error)) (uint64, error) {
	ns := planner.TableNamespace(t.Name)
	var ver uint64
	err := c.serializer.Do(ns, key, func() error {
		cur, _, err := c.readRow(ns, key)
		if err != nil {
			return err
		}
		next, err := fn(cur)
		if err != nil || (next == nil && cur == nil) {
			return err
		}
		ver, err = c.applyChanges(t, []change{{key: key, oldRow: cur, newRow: next}})
		return err
	})
	return ver, err
}

// readOldImages fills each change's old row from its primary: one
// point read for a single row, one batched read per node for a batch.
// A later change to a key earlier in the batch takes the earlier
// change's new row as its old image, or index maintenance would never
// retire the entries the earlier write creates.
func (c *Cluster) readOldImages(ns string, changes []change) error {
	if len(changes) == 1 {
		cur, _, err := c.readRow(ns, changes[0].key)
		changes[0].oldRow = cur
		return err
	}
	keys := make([][]byte, len(changes))
	for i, ch := range changes {
		keys[i] = ch.key
	}
	curs, err := c.router.GetBatch(ns, keys, partition.ReadPrimary)
	if err != nil {
		return err
	}
	prev := make(map[string]row.Row, len(changes))
	for i := range changes {
		if curs[i].Err != nil {
			return curs[i].Err
		}
		if p, ok := prev[string(keys[i])]; ok {
			changes[i].oldRow = p
		} else if curs[i].Found {
			if changes[i].oldRow, err = row.Decode(curs[i].Value); err != nil {
				return err
			}
		}
		prev[string(keys[i])] = changes[i].newRow
	}
	return nil
}

// change is one base-table row write: the row's storage key, the image
// it replaces (nil when absent) and the new image (nil deletes).
type change struct {
	key            []byte
	oldRow, newRow row.Row
}

// pendingWrite is a versioned change on its way to its primary, with
// the replica set of the range that takes it.
type pendingWrite struct {
	rec            record.Record
	replicas       []string
	oldRow, newRow row.Row
}

// applyChanges is the write path under every base-table write: version
// each change, deliver the records as one multi-record apply per
// primary, and enqueue each change's replication and asynchronous index
// maintenance (§3.2) with the table's staleness deadline. Node groups
// apply concurrently; a single group — every one-row write — applies
// on the caller's goroutine. It returns the version assigned to the
// last change: for a one-row write the exact session floor for
// read-your-writes (an upper bound like the coordinator's current HLC
// would overshoot under concurrent writers and make the session reject
// even the primary's answer).
func (c *Cluster) applyChanges(t *query.TableDef, changes []change) (uint64, error) {
	ns := planner.TableNamespace(t.Name)
	m, ok := c.router.Map(ns)
	if !ok {
		return 0, fmt.Errorf("scads: no partition map for %s", ns)
	}
	var ver uint64
	groups := make(map[string][]pendingWrite) // primary node -> its writes
	for _, ch := range changes {
		ver = c.nextVersion()
		rec := record.Record{Key: ch.key, Version: ver, Tombstone: ch.newRow == nil}
		if ch.newRow != nil {
			val, err := row.Encode(ch.newRow)
			if err != nil {
				return 0, err
			}
			rec.Value = val
		}
		rng := m.Lookup(ch.key)
		c.loads.Record(ns, rng.Start, ch.key)
		groups[rng.Replicas[0]] = append(groups[rng.Replicas[0]],
			pendingWrite{rec: rec, replicas: rng.Replicas, oldRow: ch.oldRow, newRow: ch.newRow})
	}
	bound := c.stalenessBound(t.Name)
	if len(groups) == 1 {
		for node, ws := range groups {
			if err := c.applyGroup(t.Name, ns, m, node, ws, bound); err != nil {
				return 0, err
			}
		}
		return ver, nil
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for node, ws := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.applyGroup(t.Name, ns, m, node, ws, bound); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return ver, nil
}

// applyGroup delivers one primary's writes as one apply, then enqueues
// their follow-ups. A group that meets a range mid-handoff, a crashed
// primary or a shedding node falls back to per-record ApplyPrimary,
// which re-reads the map and waits the condition out; each record's
// replication then follows the range that accepted it. Follow-ups are
// enqueued per group, so one node's failure never strands another
// group's applied records without them.
func (c *Cluster) applyGroup(table, ns string, m *partition.Map, node string, ws []pendingWrite, bound time.Duration) error {
	recs := make([]record.Record, len(ws))
	for i, w := range ws {
		recs[i] = w.rec
	}
	if err := c.router.Apply(ns, node, recs); err != nil {
		if !rpc.IsFenced(err) && !partition.IsUnavailable(err) && !rpc.IsOverloaded(err) {
			return err
		}
		for i := range ws {
			rng, err := c.router.ApplyPrimary(ns, recs[i].Key, recs[i:i+1])
			if err != nil {
				return err
			}
			ws[i].replicas = rng.Replicas
		}
	}
	for _, w := range ws {
		c.enqueueReplication(ns, m, w.rec, w.replicas, bound)
		c.maint.push(maintTask{
			table:    table,
			oldRow:   w.oldRow,
			newRow:   w.newRow,
			deadline: c.clk.Now().Add(bound),
		})
	}
	return nil
}

// mergeRows resolves a write conflict through the registered merge
// function (§3.3.1: "the developer may specify a function that will
// merge conflicting writes"). A row-level merge (RegisterRowMerge)
// receives both whole rows and returns the winner; otherwise the
// byte-level function registered under the same name is applied
// column-wise to differing string columns. Commutative merges make
// replicas converge regardless of write order.
func (c *Cluster) mergeRows(mergeName string, old, new row.Row) (row.Row, error) {
	if fn, ok := c.lookupRowMerge(mergeName); ok {
		merged := fn(old.Clone(), new.Clone())
		if merged == nil {
			return new, nil
		}
		return merged, nil
	}
	fn, err := c.merges.Lookup(mergeName)
	if err != nil {
		return nil, err
	}
	merged := new.Clone()
	for col, ov := range old {
		nv, ok := merged[col]
		if !ok {
			merged[col] = ov
			continue
		}
		os, oldIsStr := ov.(string)
		ns, newIsStr := nv.(string)
		if oldIsStr && newIsStr && os != ns {
			merged[col] = string(fn([]byte(os), []byte(ns)))
		}
	}
	return merged, nil
}

// enqueueReplication schedules rec for delivery to the secondaries of
// the range that acknowledged it, then re-reads the partition map and
// also covers any member a racing reconfiguration added in between. A
// migration's flip-time Rebind clones only updates that are already
// queued, so an update enqueued just after a flip — against the
// pre-flip replica set it captured before the apply — would otherwise
// permanently miss the range's new members; the post-enqueue re-read
// closes that window from the other side (duplicates are harmless:
// applies are last-write-wins by version, and a delivery to a node
// that lost the range bounces off its residual fence).
func (c *Cluster) enqueueReplication(ns string, m *partition.Map, rec record.Record, acked []string, bound time.Duration) {
	if len(acked) > 1 {
		c.pump.Enqueue(ns, rec, acked[1:], bound)
	}
	var added []string
	for _, id := range m.Lookup(rec.Key).Replicas {
		if !slices.Contains(acked, id) {
			added = append(added, id)
		}
	}
	if len(added) > 0 {
		c.pump.Enqueue(ns, rec, added, bound)
	}
}

// readRow fetches the current row from the primary (nil when absent).
func (c *Cluster) readRow(ns string, key []byte) (row.Row, uint64, error) {
	val, ver, found, err := c.router.Get(ns, key, partition.ReadPrimary)
	if err != nil || !found {
		return nil, 0, err
	}
	r, err := row.Decode(val)
	if err != nil {
		return nil, 0, err
	}
	return r, ver, nil
}

// DrainMaintenance synchronously runs up to budget pending index
// maintenance tasks in deadline order, returning how many ran.
// Simulations call this each tick; FlushAll drains everything.
func (c *Cluster) DrainMaintenance(budget int) (int, error) {
	c.mu.RLock()
	views := c.views
	c.mu.RUnlock()
	if views == nil {
		return 0, nil
	}
	n := 0
	for n < budget {
		task, ok := c.maint.pop()
		if !ok {
			return n, nil
		}
		n++
		muts, err := views.Mutations(task.table, task.oldRow, task.newRow)
		if err != nil {
			return n, fmt.Errorf("scads: maintenance for %s: %w", task.table, err)
		}
		for _, mut := range muts {
			if err := c.applyIndexMutation(mut.Namespace, mut.Key, mut.Value); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

func (c *Cluster) applyIndexMutation(ns string, key []byte, val row.Row) error {
	rec := record.Record{Key: key, Version: c.nextVersion()}
	if val == nil {
		rec.Tombstone = true
	} else {
		enc, err := row.Encode(val)
		if err != nil {
			return err
		}
		rec.Value = enc
	}
	m, ok := c.router.Map(ns)
	if !ok {
		return fmt.Errorf("scads: no partition map for %s", ns)
	}
	rng, err := c.router.ApplyPrimary(ns, key, []record.Record{rec})
	if err != nil {
		return err
	}
	c.enqueueReplication(ns, m, rec, rng.Replicas, defaultStaleness)
	return nil
}

// FlushAll drains all pending maintenance and replication — the "wait
// for quiescence" helper used by tests and examples.
func (c *Cluster) FlushAll() error {
	for {
		n, err := c.DrainMaintenance(1024)
		if err != nil {
			return err
		}
		r := c.pump.Drain(4096)
		if n == 0 && r == 0 {
			return nil
		}
	}
}

// MaintenanceBacklog reports pending maintenance tasks and how many
// are at risk of missing their deadline within margin.
func (c *Cluster) MaintenanceBacklog(margin time.Duration) (pending, atRisk int) {
	return c.maint.Len(), c.maint.AtRisk(c.clk.Now(), margin)
}

// --- deadline-ordered maintenance queue ---

type maintTask struct {
	table    string
	oldRow   row.Row
	newRow   row.Row
	deadline time.Time
	seq      int64
}

type maintQueue struct {
	mu  sync.Mutex
	h   maintHeap
	seq int64
}

func newMaintQueue() *maintQueue { return &maintQueue{} }

func (q *maintQueue) push(t maintTask) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	t.seq = q.seq
	heap.Push(&q.h, t)
}

func (q *maintQueue) pop() (maintTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) == 0 {
		return maintTask{}, false
	}
	return heap.Pop(&q.h).(maintTask), true
}

// Len reports queue depth.
func (q *maintQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

// AtRisk counts tasks whose deadline is within margin of now.
func (q *maintQueue) AtRisk(now time.Time, margin time.Duration) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	limit := now.Add(margin)
	n := 0
	for _, t := range q.h {
		if !t.deadline.After(limit) {
			n++
		}
	}
	return n
}

type maintHeap []maintTask

func (h maintHeap) Len() int { return len(h) }
func (h maintHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h maintHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *maintHeap) Push(x any)   { *h = append(*h, x.(maintTask)) }
func (h *maintHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// tableDef resolves a table by name.
func (c *Cluster) tableDef(table string) (*query.TableDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.schema == nil {
		return nil, ErrNoSchema
	}
	t, ok := c.schema.Tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	return t, nil
}

// normalizeRow widens literal types and validates against the table's
// columns; unknown columns are rejected, missing non-key columns are
// allowed (sparse rows).
func (c *Cluster) normalizeRow(t *query.TableDef, r row.Row) (row.Row, error) {
	out := make(row.Row, len(r))
	for col, v := range r {
		def, ok := t.Column(col)
		if !ok {
			return nil, fmt.Errorf("scads: table %s has no column %q", t.Name, col)
		}
		nv := row.Normalize(v)
		if err := row.CheckType(def.Type, nv); err != nil {
			return nil, fmt.Errorf("scads: table %s: %w", t.Name, err)
		}
		out[col] = nv
	}
	for _, pk := range t.PrimaryKey {
		if _, ok := out[pk]; !ok {
			return nil, fmt.Errorf("scads: table %s: primary key column %q missing", t.Name, pk)
		}
	}
	return out, nil
}

// pkKey builds the storage key from a row containing the primary key
// columns.
func pkKey(t *query.TableDef, r row.Row) ([]byte, error) {
	norm := make(row.Row, len(t.PrimaryKey))
	for _, pk := range t.PrimaryKey {
		v, ok := r[pk]
		if !ok {
			return nil, fmt.Errorf("scads: primary key column %q missing", pk)
		}
		norm[pk] = row.Normalize(v)
	}
	return row.EncodeKey(norm, t.PrimaryKey)
}
