package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scads"
	"scads/internal/clock"
	"scads/internal/cluster"
	"scads/internal/row"
	"scads/internal/rpc"
	"scads/internal/storage"
)

const (
	nodes    = 3
	rf       = 2
	clients  = 2
	loadRows = 256 // rows per InsertBatch while loading
	// maxLoadBacklog bounds the replication queue while loading.
	maxLoadBacklog = 8 * loadRows

	// Storage defaults of scads-server (-memtable-bytes,
	// -block-cache-bytes; a zero row cache selects the engine's 32 MiB).
	serverMemtableBytes   = 4 << 20
	serverBlockCacheBytes = 32 << 20
)

// system is one SCADS deployment inside this process: three
// disk-backed storage nodes served over loopback TCP and a coordinator
// reaching them through the TCP transport.
type system struct {
	dir       string
	engines   []*storage.Engine
	servers   []*rpc.Server
	transport *rpc.TCPTransport
	c         *scads.Cluster
}

// open builds a system under dir. With tr non-nil every node is served
// through a tracing handler and the coordinator's transport is wrapped
// in a tracing transport below its request batcher; both record only
// while tr is active.
func open(dir string, s spec, tr *tracer) (*system, error) {
	sys := &system{dir: dir}
	clk := clock.NewReal()
	directory := cluster.NewDirectory(clk)
	for i := 0; i < nodes; i++ {
		opts := storage.Options{
			Dir:             filepath.Join(dir, fmt.Sprintf("node-%d", i+1)),
			NodeID:          uint16(i + 1),
			MemtableBytes:   serverMemtableBytes,
			BlockCacheBytes: serverBlockCacheBytes,
		}
		if s.cacheBytes > 0 {
			opts.CacheBytes, opts.BlockCacheBytes = s.cacheBytes, s.cacheBytes
		}
		engine, err := storage.Open(opts)
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("open node %d: %w", i+1, err)
		}
		sys.engines = append(sys.engines, engine)
		id := fmt.Sprintf("node-%d", i+1)
		var h rpc.Handler = cluster.NewNode(id, engine)
		if tr != nil {
			h = &tracedHandler{next: h, t: tr}
		}
		srv := rpc.NewServer(h)
		sys.servers = append(sys.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("listen node %d: %w", i+1, err)
		}
		directory.Join(id, addr)
		directory.MarkUp(id)
	}
	sys.transport = rpc.NewTCPTransport()
	var transport rpc.Transport = sys.transport
	if tr != nil {
		transport = &tracedTransport{next: transport, t: tr}
	}
	c, err := scads.Open(scads.Config{
		Clock:             clk,
		Transport:         transport,
		Directory:         directory,
		ReplicationFactor: rf,
	})
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.c = c
	ddl := socialDDL
	if !s.social {
		ddl = profileDDL
	}
	if err := c.DefineSchema(ddl); err != nil {
		sys.close()
		return nil, err
	}
	if !s.social {
		// Three ranges, one led by each node, so every node serves
		// reads and holds two thirds of the profiles.
		var bounds []any
		for i := 1; i < nodes; i++ {
			bounds = append(bounds, profileKey(int32(i*s.profiles/nodes)))
		}
		if err := c.SplitTable("profiles", bounds...); err != nil {
			sys.close()
			return nil, err
		}
		for i := 0; i < nodes; i++ {
			replicas := []string{fmt.Sprintf("node-%d", i+1), fmt.Sprintf("node-%d", (i+1)%nodes+1)}
			if err := c.AssignRange("profiles", profileKey(int32(i*s.profiles/nodes)), replicas); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	c.StartBackground(2)
	return sys, nil
}

// close stops the coordinator, the servers and the engines, and
// removes the data directory.
func (sys *system) close() {
	if sys.c != nil {
		sys.c.Close()
	}
	if sys.transport != nil {
		sys.transport.Close()
	}
	for _, srv := range sys.servers {
		srv.Close()
	}
	for _, e := range sys.engines {
		if err := e.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close engine:", err)
		}
	}
	os.RemoveAll(sys.dir)
}

// setUp builds a system and loads the workload's data: the timed
// set-up of one run. It returns once both background queues are empty
// and, for profile-cold, every memtable is flushed and compaction has
// settled.
func setUp(dir string, in *inputs, tr *tracer) (*system, time.Duration, error) {
	start := time.Now()
	sys, err := open(dir, in.spec, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := sys.load(in); err != nil {
		sys.close()
		return nil, 0, err
	}
	if _, err := sys.waitQuiet(); err != nil {
		sys.close()
		return nil, 0, err
	}
	if !in.spec.social {
		if err := sys.c.FlushAll(); err != nil {
			sys.close()
			return nil, 0, err
		}
		for _, e := range sys.engines {
			for _, name := range e.Namespaces() {
				ns, err := e.Namespace(name)
				if err == nil {
					err = ns.Flush()
				}
				if err != nil {
					sys.close()
					return nil, 0, fmt.Errorf("flush %s: %w", name, err)
				}
				ns.WaitCompaction()
			}
		}
	}
	return sys, time.Since(start), nil
}

func (sys *system) load(in *inputs) error {
	batch := func(table string, rows []row.Row) error {
		for len(rows) > 0 {
			n := min(loadRows, len(rows))
			if err := sys.c.InsertBatch(table, rows[:n]); err != nil {
				return fmt.Errorf("load %s: %w", table, err)
			}
			rows = rows[n:]
			// Let replication keep up, so the queued copies of the
			// data do not inflate the process's memory.
			for sys.c.Stats().Replication.Pending > maxLoadBacklog {
				time.Sleep(time.Millisecond)
			}
		}
		return nil
	}
	if in.spec.social {
		if err := batch("users", in.profiles); err != nil {
			return err
		}
		edges := make([]row.Row, len(in.edges))
		for i, e := range in.edges {
			edges[i] = row.Row{"f1": e[0], "f2": e[1]}
		}
		return batch("friendships", edges)
	}
	rows := make([]row.Row, 0, loadRows)
	for i := 0; i < in.spec.profiles; i++ {
		rows = append(rows, row.Row{"id": profileKey(int32(i)), "body": in.profileBody(int32(i))})
		if len(rows) == loadRows || i == in.spec.profiles-1 {
			if err := batch("profiles", rows); err != nil {
				return err
			}
			rows = rows[:0]
		}
	}
	return nil
}

// quietHold is how long both background queues must stay empty, with
// no replication enqueued or delivered, before the system counts as
// drained. It covers a maintenance task popped from its queue but not
// yet applied.
const quietHold = 10 * time.Millisecond

// waitQuiet polls the coordinator until the replication queue and the
// index-maintenance queue are empty and stay empty for quietHold. It
// returns the moment the queues were first seen empty in that quiet
// spell.
func (sys *system) waitQuiet() (time.Time, error) {
	deadline := time.Now().Add(2 * time.Minute)
	var since time.Time
	var enq, del int64
	for {
		st := sys.c.Stats()
		now := time.Now()
		quiet := st.Replication.Pending == 0 && st.Maintenance == 0
		switch {
		case !quiet:
			since = time.Time{}
		case since.IsZero() || st.Replication.Enqueued != enq || st.Replication.Delivered != del:
			since, enq, del = now, st.Replication.Enqueued, st.Replication.Delivered
		case now.Sub(since) >= quietHold:
			return since, nil
		}
		if now.After(deadline) {
			return time.Time{}, errors.New("background queues did not drain within 2m")
		}
		time.Sleep(time.Millisecond)
	}
}

// exec issues one op through the coordinator's public API. It reports
// an error for a failed call and, on profile-cold, for any row that is
// missing or fails its checksum.
func (sys *system) exec(in *inputs, o *op) error {
	c := sys.c
	switch o.kind {
	case opFindUser:
		_, err := c.Query("findUser", map[string]any{"user": o.user})
		return err
	case opFriends:
		_, err := c.Query("friends", map[string]any{"user": o.user})
		return err
	case opBirthdays:
		_, err := c.Query("friendsWithUpcomingBirthdays", map[string]any{"user": o.user})
		return err
	case opInsert:
		return c.Insert(o.table(), o.row)
	case opDelete:
		return c.Delete("friendships", row.Row{"f1": o.user, "f2": o.other})
	case opGet:
		r, found, err := c.Get("profiles", row.Row{"id": profileKey(o.keys[0])})
		if err != nil {
			return err
		}
		if !found || !in.validProfile(o.keys[0], r) {
			return fmt.Errorf("profile %s: wrong or missing row", profileKey(o.keys[0]))
		}
		return nil
	case opGetMulti:
		pks := make([]row.Row, len(o.keys))
		for i, k := range o.keys {
			pks[i] = row.Row{"id": profileKey(k)}
		}
		rows, found, err := c.GetMulti("profiles", pks)
		if err != nil {
			return err
		}
		for i, k := range o.keys {
			if !found[i] || !in.validProfile(k, rows[i]) {
				return fmt.Errorf("profile %s: wrong or missing row in GetMulti", profileKey(k))
			}
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}
