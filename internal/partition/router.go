package partition

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scads/internal/cluster"
	"scads/internal/record"
	"scads/internal/rpc"
)

// ReadPolicy selects which replica serves reads.
type ReadPolicy int

const (
	// ReadAny rotates across replicas — the default relaxed-consistency
	// read path (stale reads possible within the declared bound).
	ReadAny ReadPolicy = iota
	// ReadPrimary always reads the primary — used when the
	// consistency spec demands read-your-writes without session state
	// or serializable access.
	ReadPrimary
)

// ErrNoReplicaAvailable is returned when every replica of the target
// range is down or unreachable.
var ErrNoReplicaAvailable = errors.New("partition: no replica available")

// IsUnavailable reports whether err means the operation's target nodes
// could not be reached (as opposed to a semantic failure from a node
// that answered). Coordinator write paths treat these like fence
// rejections: re-read the partition map and retry, so a crash-failover
// flip by the repair manager un-sticks the writer.
func IsUnavailable(err error) bool {
	return err != nil && (errors.Is(err, ErrNoReplicaAvailable) || rpc.IsUnreachable(err))
}

// Router maps (namespace, key) to replica groups and performs the
// client-side request fan-out. Safe for concurrent use.
type Router struct {
	transport rpc.Transport
	dir       *cluster.Directory

	mu   sync.RWMutex
	maps map[string]*Map

	rr atomic.Uint64 // round-robin counter for ReadAny
}

// NewRouter returns a Router resolving node addresses through dir and
// calling through transport.
func NewRouter(transport rpc.Transport, dir *cluster.Directory) *Router {
	return &Router{transport: transport, dir: dir, maps: make(map[string]*Map)}
}

// SetMap installs the partition map for a namespace.
func (r *Router) SetMap(namespace string, m *Map) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maps[namespace] = m
}

// Map returns the partition map for a namespace.
func (r *Router) Map(namespace string) (*Map, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.maps[namespace]
	return m, ok
}

// Namespaces lists namespaces with installed maps.
func (r *Router) Namespaces() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.maps))
	for ns := range r.maps {
		out = append(out, ns)
	}
	return out
}

func (r *Router) mapFor(namespace string) (*Map, error) {
	m, ok := r.Map(namespace)
	if !ok {
		return nil, fmt.Errorf("partition: no map for namespace %q", namespace)
	}
	return m, nil
}

// addrOf resolves a node ID to its address if the node is serving.
func (r *Router) addrOf(nodeID string) (string, bool) {
	m, ok := r.dir.Get(nodeID)
	if !ok || m.Status != cluster.StatusUp {
		return "", false
	}
	return m.Addr, true
}

// Get reads key, trying replicas according to policy with failover.
// It returns the value, its version, and whether it was found. When no
// replica at all is reachable the lookup is retried against a freshly
// read partition map (up to the shared down-retry budget), so reads —
// including the primary reads the write path depends on — ride through
// a crash window that the repair manager resolves with a failover
// flip.
func (r *Router) Get(namespace string, key []byte, policy ReadPolicy) ([]byte, uint64, bool, error) {
	m, err := r.mapFor(namespace)
	if err != nil {
		return nil, 0, false, err
	}
	return r.getUntil(m, namespace, key, policy, time.Now().Add(rpc.DownRetryBudget))
}

// getUntil is Get with an explicit retry deadline, so batched
// fallbacks can share one budget across many keys instead of paying
// it per key.
func (r *Router) getUntil(m *Map, namespace string, key []byte, policy ReadPolicy, deadline time.Time) ([]byte, uint64, bool, error) {
	req := rpc.Request{Method: rpc.MethodGet, Namespace: namespace, Key: key}
	for {
		rng := m.Lookup(key)
		for _, id := range r.replicaOrder(rng.Replicas, policy) {
			addr, ok := r.addrOf(id)
			if !ok {
				continue
			}
			resp, err := r.transport.Call(addr, req)
			if err != nil {
				continue // failover to the next replica
			}
			if e := resp.Error(); e != nil {
				if rpc.IsOverloaded(e) {
					// The replica shed the read under its handler
					// bound: fail over to the next replica; if every
					// replica sheds, the outer loop backs off for the
					// hinted interval under the shared budget.
					continue
				}
				return nil, 0, false, e
			}
			return resp.Value, resp.Version, resp.Found, nil
		}
		// The budget is wall-clock, not attempt-counted: over TCP one
		// attempt can burn a whole dial timeout.
		if time.Now().After(deadline) {
			return nil, 0, false, ErrNoReplicaAvailable
		}
		time.Sleep(rpc.DownRetryPause)
	}
}

// GetResult is one key's outcome from GetBatch.
type GetResult struct {
	Value   []byte
	Version uint64
	Found   bool
	Err     error
}

// GetBatch reads many keys with at most one request per storage node:
// keys are grouped by the replica the policy selects and fetched
// through one MethodBatch envelope per node, so a coordinator-side
// multi-get costs a handful of round-trips instead of one per key.
// Keys whose batched read fails (node unreachable, malformed reply)
// fall back to the single-key path with its usual replica failover.
// The returned slice matches keys positionally; per-key failures are
// reported in GetResult.Err rather than aborting the batch.
func (r *Router) GetBatch(namespace string, keys [][]byte, policy ReadPolicy) ([]GetResult, error) {
	m, err := r.mapFor(namespace)
	if err != nil {
		return nil, err
	}
	out := make([]GetResult, len(keys))
	groups := make(map[string][]int) // addr -> indices into keys
	var unrouted []int               // keys with no reachable replica right now
	for i, key := range keys {
		rng := m.Lookup(key)
		addr := ""
		for _, id := range r.replicaOrder(rng.Replicas, policy) {
			if a, ok := r.addrOf(id); ok {
				addr = a
				break
			}
		}
		if addr == "" {
			// No replica is reachable at this instant — likely a crash
			// window the repair manager is about to resolve. Fall back
			// to the single-key path, which re-reads the map and waits
			// out the failover.
			unrouted = append(unrouted, i)
			continue
		}
		groups[addr] = append(groups[addr], i)
	}
	// One flight per node, all in parallel; each goroutine writes a
	// disjoint set of out indices.
	var wg sync.WaitGroup
	for addr, idxs := range groups {
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			subs := make([]rpc.Request, len(idxs))
			for j, i := range idxs {
				subs[j] = rpc.Request{Method: rpc.MethodGet, Namespace: namespace, Key: keys[i]}
			}
			var resps []rpc.Response
			if len(subs) == 1 {
				if resp, err := r.transport.Call(addr, subs[0]); err == nil {
					resps = []rpc.Response{resp}
				}
			} else {
				resp, err := r.transport.Call(addr, rpc.Request{Method: rpc.MethodBatch, Batch: subs})
				if err == nil && len(resp.Batch) == len(subs) {
					resps = resp.Batch
				}
			}
			if resps == nil {
				for _, i := range idxs {
					v, ver, found, err := r.Get(namespace, keys[i], policy)
					out[i] = GetResult{Value: v, Version: ver, Found: found, Err: err}
				}
				return
			}
			for j, i := range idxs {
				resp := resps[j]
				if e := resp.Error(); e != nil {
					out[i] = GetResult{Err: e}
					continue
				}
				out[i] = GetResult{Value: resp.Value, Version: resp.Version, Found: resp.Found}
			}
		}(addr, idxs)
	}
	if len(unrouted) > 0 {
		// One goroutine and one shared down-retry budget for ALL
		// unrouted keys: they typically share the same crashed range,
		// and a permanent configuration error must cost one budget per
		// batch, not one per key.
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(rpc.DownRetryBudget)
			for _, i := range unrouted {
				v, ver, found, err := r.getUntil(m, namespace, keys[i], policy, deadline)
				out[i] = GetResult{Value: v, Version: ver, Found: found, Err: err}
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// GetFrom reads key from one specific replica (used by session
// guarantees to pin reads and by experiments that measure staleness).
// Failing over to another replica would break the pinning, so an
// unreachable node is classified as ErrNoReplicaAvailable — exactly
// like a node the directory already marked down — and the caller
// decides whether its session floor lets it try elsewhere.
func (r *Router) GetFrom(namespace, nodeID string, key []byte) ([]byte, uint64, bool, error) {
	addr, ok := r.addrOf(nodeID)
	if !ok {
		return nil, 0, false, ErrNoReplicaAvailable
	}
	resp, err := r.transport.Call(addr, rpc.Request{Method: rpc.MethodGet, Namespace: namespace, Key: key})
	if err != nil {
		if rpc.IsUnreachable(err) {
			return nil, 0, false, fmt.Errorf("%w: %s: %v", ErrNoReplicaAvailable, nodeID, err)
		}
		return nil, 0, false, err
	}
	if e := resp.Error(); e != nil {
		if rpc.IsOverloaded(e) {
			// The pinned replica shed the read: classify like a down
			// node so the session read path fails over to the next
			// replica instead of surfacing raw backpressure.
			return nil, 0, false, fmt.Errorf("%w: %s shed the read: %v", ErrNoReplicaAvailable, nodeID, e)
		}
		return nil, 0, false, e
	}
	return resp.Value, resp.Version, resp.Found, nil
}

// Apply delivers pre-versioned records to one specific node — the
// delivery primitive under the replication pump and ApplyPrimary. It
// deliberately returns transport and node errors unclassified: the
// callers own the retry budgets (ApplyPrimary waits out fences and
// failovers under rpc.FenceRetryLimit / rpc.DownRetryBudget; the pump
// reparks undelivered records), and classifying here would
// double-charge a budget per attempt.
func (r *Router) Apply(namespace, nodeID string, recs []record.Record) error {
	addr, ok := r.addrOf(nodeID)
	if !ok {
		return ErrNoReplicaAvailable
	}
	resp, err := r.transport.Call(addr, rpc.Request{Method: rpc.MethodApply, Namespace: namespace, Records: recs})
	if err != nil {
		return err //lint:rpcretry-ok delivery primitive: ApplyPrimary and the pump classify this and own the retry budgets
	}
	return resp.Error() //lint:rpcretry-ok delivery primitive: callers classify fence/unreachable and own the retry budgets
}

// ApplyPrimary delivers pre-versioned records to the primary of key's
// range — the one write primitive every coordinator write rides. It
// re-reads the partition map on each attempt and retries while the
// primary is write-fenced for migration handoff (rpc.FenceRetryLimit),
// unreachable or down (the repair manager's failover flip re-routes
// the retry to the promoted replica), or shedding under its handler
// bound (the retry-after hint), the last two under the wall-clock
// rpc.DownRetryBudget. It returns the range that accepted the write,
// so callers replicate to the replica set actually serving it.
func (r *Router) ApplyPrimary(namespace string, key []byte, recs []record.Record) (Range, error) {
	m, err := r.mapFor(namespace)
	if err != nil {
		return Range{}, err
	}
	// Fence retries are counted separately from the wall-clock down
	// budget: a write that waited out a crash failover must still get
	// its full fence allowance when the promoted primary is briefly
	// fenced by the ensuing RF-repair handoff.
	downDeadline := time.Now().Add(rpc.DownRetryBudget)
	fenceAttempts := 0
	for {
		rng := m.Lookup(key)
		err := r.Apply(namespace, rng.Replicas[0], recs)
		switch {
		case err == nil:
			return rng, nil
		case rpc.IsFenced(err) && fenceAttempts < rpc.FenceRetryLimit:
			// The fence lifts (or routing flips away from it) shortly;
			// real sleep rather than a virtual clock, since the fence
			// is held by a concurrent migration goroutine, not by time.
			fenceAttempts++
			time.Sleep(rpc.FenceRetryPause)
		case IsUnavailable(err) && time.Now().Before(downDeadline):
			// The primary crashed; wait out failure detection plus the
			// failover flip (wall-clock budget: one TCP attempt can
			// burn a whole dial timeout).
			time.Sleep(rpc.DownRetryPause)
		case rpc.IsOverloaded(err) && time.Now().Before(downDeadline):
			// Backpressure delays the write, it does not fail it.
			time.Sleep(rpc.RetryAfter(err))
		default:
			return rng, err
		}
	}
}

// replicaOrder returns the replica IDs in the order reads should try
// them.
func (r *Router) replicaOrder(replicas []string, policy ReadPolicy) []string {
	if policy == ReadPrimary || len(replicas) == 1 {
		return replicas
	}
	n := len(replicas)
	off := int(r.rr.Add(1)) % n
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, replicas[(off+i)%n])
	}
	return out
}

func maxKey(a, b []byte) []byte {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if string(a) >= string(b) {
		return a
	}
	return b
}

func minKey(a, b []byte) []byte {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if string(a) <= string(b) {
		return a
	}
	return b
}
