package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"scads"
)

// config is one benchmark run.
type config struct {
	spec   spec
	seed   int64
	trace  bool
	setups int    // systems built; setup_s is the median
	work   string // directory for node data and span dumps
	out    io.Writer
}

// metric is one named, unit-carrying result.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run reports.
type result struct {
	correct   bool
	traced    bool
	attempted int64
	failed    int64
	metrics   []metric // the metrics of the run's mode, in print order
	// Facts the smoke test checks.
	drainedAtClose bool
}

// snapshot is the counter state at one boundary of a pass.
type snapshot struct {
	proc    procStat
	cluster scads.Stats
	engines engineTotals
}

type engineTotals struct {
	rowHits, rowMisses, blockHits, blockMisses int64
	tables                                     int
}

func takeSnapshot(sys *system) snapshot {
	s := snapshot{proc: readProcStat(), cluster: sys.c.Stats()}
	for _, e := range sys.engines {
		st := e.Stats()
		s.engines.rowHits += st.Cache.Hits
		s.engines.rowMisses += st.Cache.Misses
		s.engines.blockHits += st.BlockCache.Hits
		s.engines.blockMisses += st.BlockCache.Misses
		s.engines.tables += st.TableCount
	}
	return s
}

// rounds is how many consecutive rounds the op sequence is measured
// in. Each round is a window of its own; the end-to-end numbers are
// medians over rounds, so a burst of host contention a few seconds
// long moves a few rounds and not the result.
const rounds = 10

// pass is one measured run of the op sequence, as consecutive rounds.
type pass struct {
	lat    []time.Duration // per op, in sequence order
	failed int64
	rounds []round
	// Counters over the whole pass, for the per-layer metrics.
	before, after snapshot
	spans         spanTotals
	cpuProfile    []byte
	checks        []string
}

// round is one window: it opens at the round's first op and closes
// when its last op has returned and both background queues have
// drained.
type round struct {
	lo, hi  int // ops [lo, hi) of the sequence
	elapsed time.Duration
	drain   time.Duration // last op returned to queues drained
	cpu     time.Duration
	// Queue depths when the round's last op returned.
	pendingRepl, pendingMaint int
}

func run(cfg config) (*result, error) {
	in, err := generate(cfg.spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	data, opsDigest := in.digests()
	s := cfg.spec
	fmt.Fprintf(cfg.out, "workload %s seed %d: %d measured ops after %d warm-up ops; %d closed-loop clients; %d nodes, RF %d, SyncWrites off\n",
		s.name, cfg.seed, len(in.ops), len(in.warmup), clients, nodes, rf)
	if s.social {
		fmt.Fprintf(cfg.out, "data: %d users, %d friendship rows; node caches at scads-server defaults\n", len(in.profiles), len(in.edges))
	} else {
		fmt.Fprintf(cfg.out, "data: %d profiles of %d B, %d ranges on %d nodes; row cache and block cache %d MiB per node\n",
			s.profiles, s.valueBytes, nodes, nodes, s.cacheBytes>>20)
	}
	fmt.Fprintf(cfg.out, "inputs: data digest %s, op digest %s\n", data, opsDigest)

	dataDir := filepath.Join(cfg.work, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)

	var (
		setups           []float64
		untraced, traced *pass
		tr               *tracer
		checkErrs        []error
	)
	for i := 0; i < cfg.setups; i++ {
		last := i == cfg.setups-1
		measure := last || (cfg.trace && i == cfg.setups-2)
		var t *tracer
		if cfg.trace && last {
			tr = newTracer()
			t = tr
		}
		sys, d, err := setUp(filepath.Join(dataDir, fmt.Sprint(i)), in, t)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
		if measure {
			p, errs, err := measurePass(sys, in, t, cfg.seed)
			if err != nil {
				sys.close()
				return nil, err
			}
			checkErrs = append(checkErrs, errs...)
			if t != nil {
				traced = p
			} else {
				untraced = p
			}
		}
		sys.close()
		runtime.GC()
	}
	for i, err := range checkErrs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... %d more check failures\n", len(checkErrs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}

	res := &result{correct: len(checkErrs) == 0, traced: cfg.trace, drainedAtClose: true}
	fmt.Fprintf(cfg.out, "setup_s per set-up: %s\n", fmtFloats(setups))
	e2e := endToEnd(in, untraced, setups)
	var perRoundOps []float64
	for _, rd := range untraced.rounds {
		perRoundOps = append(perRoundOps, float64(rd.hi-rd.lo)/rd.elapsed.Seconds())
	}
	fmt.Fprintf(cfg.out, "throughput_ops_s per round: %s\n", fmtFloats(perRoundOps))
	printMetrics(cfg.out, "end-to-end (untraced, medians over rounds)", e2e)
	for _, p := range []*pass{untraced, traced} {
		if p == nil {
			continue
		}
		res.attempted += int64(len(p.lat))
		res.failed += p.failed
		res.drainedAtClose = res.drainedAtClose && p.after.cluster.Replication.Pending == 0 && p.after.cluster.Maintenance == 0
		for _, line := range p.checks {
			fmt.Fprintln(cfg.out, "check:", line)
		}
	}
	if !cfg.trace {
		res.metrics = e2e
		return res, nil
	}

	layers := perLayer(in, untraced, traced)
	printMetrics(cfg.out, "per-layer (traced)", layers)
	fmt.Fprintf(cfg.out, "tracing overhead: throughput %.0f -> %.0f ops/s (%+.1f%%), CPU %.1f -> %.1f us/op (%+.1f%%)\n",
		throughput(untraced), throughput(traced), 100*(throughput(traced)/throughput(untraced)-1),
		cpuPerOp(untraced), cpuPerOp(traced), 100*(cpuPerOp(traced)/cpuPerOp(untraced)-1))
	traceDir := filepath.Join(cfg.work, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.csv", s.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(cfg.out, "spans: %d written to %s\n", len(tr.spans), path)
	res.metrics = layers
	return res, nil
}

// measurePass warms the system up, runs the measured op sequence
// with tracing on when tr is set, waits for both background queues to
// drain, and checks the outputs. Check mismatches come back as errs;
// err is a failure to run at all.
func measurePass(sys *system, in *inputs, tr *tracer, seed int64) (p *pass, errs []error, err error) {
	if failed, err := drive(sys, in, in.warmup, nil, nil, nil); err != nil || failed > 0 {
		return nil, nil, fmt.Errorf("warm-up: %d ops failed: %v", failed, err)
	}
	if _, err := sys.waitQuiet(); err != nil {
		return nil, nil, err
	}
	runtime.GC()

	p = &pass{lat: make([]time.Duration, len(in.ops))}
	var prof bytes.Buffer
	p.before = takeSnapshot(sys)
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
		tr.active.Store(true)
	}
	for r := 0; r < rounds && err == nil; r++ {
		rd := round{lo: r * len(in.ops) / rounds, hi: (r + 1) * len(in.ops) / rounds}
		cpu := readProcStat().cpu
		start := time.Now()
		failed, _ := drive(sys, in, in.ops[rd.lo:rd.hi], in.owner[rd.lo:rd.hi], p.lat[rd.lo:rd.hi], tr)
		fgEnd := time.Now()
		st := sys.c.Stats()
		var quietAt time.Time
		quietAt, err = sys.waitQuiet()
		rd.cpu = readProcStat().cpu - cpu
		rd.elapsed, rd.drain = quietAt.Sub(start), max(0, quietAt.Sub(fgEnd))
		rd.pendingRepl, rd.pendingMaint = st.Replication.Pending, st.Maintenance
		p.failed += failed
		p.rounds = append(p.rounds, rd)
	}
	if tr != nil {
		tr.active.Store(false)
		pprof.StopCPUProfile()
		p.cpuProfile = prof.Bytes()
		p.spans = tr.totals()
	}
	p.after = takeSnapshot(sys)
	if err != nil {
		return nil, nil, err
	}

	if in.spec.social {
		p.checks, errs = checkSocial(sys, in, seed)
	} else {
		p.checks = []string{fmt.Sprintf("profiles: %d reads verified against their key checksums, %d failed", len(in.ops), p.failed)}
	}
	// Reads enqueue no background work, so anything queued since the
	// last round closed means it closed early.
	st := sys.c.Stats()
	if st.Replication.Enqueued != p.after.cluster.Replication.Enqueued || st.Maintenance != 0 || st.Replication.Pending != 0 {
		errs = append(errs, errors.New("background work continued after the last round closed"))
	}
	return p, errs, nil
}

// drive runs ops through the closed-loop clients, each issuing the ops
// owner assigns it (alternately when owner is nil) in sequence order.
// lat, when non-nil, receives each op's latency. It returns the number
// of failed ops and the first failure.
func drive(sys *system, in *inputs, ops []op, owner []uint8, lat []time.Duration, tr *tracer) (int64, error) {
	var mine [clients][]int32
	for i := range ops {
		c := i % clients
		if owner != nil {
			c = int(owner[i])
		}
		mine[c] = append(mine[c], int32(i))
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed int64
		first  error
	)
	for _, idx := range mine {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			var firstErr error
			for _, i := range idx {
				o := &ops[i]
				start := time.Now()
				err := sys.exec(in, o)
				d := time.Since(start)
				if lat != nil {
					lat[i] = d
				}
				if tr != nil {
					tr.record(spanOp, start, d, uint8(o.kind), nsNone, 1)
				}
				if err != nil {
					n++
					if firstErr == nil {
						firstErr = fmt.Errorf("op %d (%s): %w", i, opKindNames[o.kind], err)
					}
				}
			}
			mu.Lock()
			failed += n
			if first == nil {
				first = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if first != nil {
		fmt.Fprintln(os.Stderr, "first failed op:", first)
	}
	return failed, first
}

// perRound returns the median over the pass's rounds of f.
func perRound(p *pass, f func(rd round) float64) float64 {
	xs := make([]float64, len(p.rounds))
	for i, rd := range p.rounds {
		xs[i] = f(rd)
	}
	return median(xs)
}

// throughput is the median over rounds of ops per second of window.
func throughput(p *pass) float64 {
	return perRound(p, func(rd round) float64 { return float64(rd.hi-rd.lo) / rd.elapsed.Seconds() })
}

// cpuPerOp is the median over rounds of process CPU microseconds per op.
func cpuPerOp(p *pass) float64 {
	return perRound(p, func(rd round) float64 { return float64(rd.cpu.Microseconds()) / float64(rd.hi-rd.lo) })
}

// classP50 is the median over rounds of the class's median latency, in
// ms; ok is false when the workload does not run the class.
func classP50(in *inputs, p *pass, c class) (p50 float64, ok bool) {
	var lats []time.Duration
	p50 = perRound(p, func(rd round) float64 {
		lats = lats[:0]
		for i := rd.lo; i < rd.hi; i++ {
			if in.ops[i].kind.class() == c {
				lats = append(lats, p.lat[i])
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		mid, _ := percentile(lats, 0.5)
		return ms(mid)
	})
	return p50, len(lats) > 0
}

// percentile returns the nearest-rank q-quantile of sorted and how
// many samples lie beyond it.
func percentile(sorted []time.Duration, q float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return sorted[i], len(sorted) - 1 - i
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sloPercentile is the percentile of the paper's SLA (99.9% of
// requests under 100 ms).
const sloPercentile = 0.999

func endToEnd(in *inputs, p *pass, setups []float64) []metric {
	all := append([]time.Duration(nil), p.lat...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p999, beyond := percentile(all, sloPercentile)
	out := []metric{
		{"setup_s", median(setups), "s"},
		{"throughput_ops_s", throughput(p), "ops/s"},
	}
	for c := range numClasses {
		if p50, ok := classP50(in, p, c); ok {
			out = append(out, metric{classNames[c] + "_p50_ms", p50, "ms"})
		}
	}
	n := float64(len(p.lat))
	out = append(out,
		metric{"p999_ms", ms(p999), "ms"},
		metric{"p999_samples_beyond", float64(beyond), "count"},
		metric{"cpu_us_per_op", cpuPerOp(p), "us"},
		metric{"max_rss_mb", float64(p.after.proc.maxRSS) / (1 << 20), "MiB"},
		metric{"error_ratio", float64(p.failed) / n, "ratio"},
		metric{"success_ratio", 1 - float64(p.failed)/n, "ratio"},
	)
	return out
}

func perLayer(in *inputs, untraced, traced *pass) []metric {
	n := float64(len(traced.lat))
	writes := float64(in.writes)
	per := func(x, by float64) float64 {
		if by == 0 {
			return 0
		}
		return x / by
	}
	b, a := traced.before, traced.after
	sp := traced.spans
	envelopeUs := per(float64(sp.envelopeNs)/1e3, float64(sp.envelopes))
	serveUs := per(float64(sp.frameNs)/1e3, float64(sp.frames))
	subUs := func(method string) float64 {
		i := methodIndex(method)
		return per(float64(sp.subNs[i])/1e3, float64(sp.subCount[i]))
	}
	calls := a.cluster.Batching.Calls - b.cluster.Batching.Calls
	batched := a.cluster.Batching.Batched - b.cluster.Batching.Batched
	rowHits, rowMisses := a.engines.rowHits-b.engines.rowHits, a.engines.rowMisses-b.engines.rowMisses
	blockHits, blockMisses := a.engines.blockHits-b.engines.blockHits, a.engines.blockMisses-b.engines.blockMisses
	shed := func(s scads.Stats) uint64 {
		t := s.Admission.ShedQuota
		for _, x := range s.Admission.ShedByClass {
			t += x
		}
		return t
	}
	out := []metric{
		{"rpc.envelopes_per_op", per(float64(sp.envelopes), n), "count"},
		{"rpc.coalesced_share", per(float64(batched), float64(calls)), "ratio"},
		{"rpc.envelope_us", envelopeUs, "us"},
		{"rpc.wire_us", envelopeUs - serveUs, "us"},
		{"node.serve_us", serveUs, "us"},
		{"node.get_us", subUs("get"), "us"},
		{"node.scan_us", subUs("scan"), "us"},
		{"node.apply_us", subUs("apply"), "us"},
		{"storage.rowcache_hit_ratio", per(float64(rowHits), float64(rowHits+rowMisses)), "ratio"},
		{"storage.blockcache_hit_ratio", per(float64(blockHits), float64(blockHits+blockMisses)), "ratio"},
		{"storage.block_reads_per_op", per(float64(blockMisses), n), "count"},
		{"storage.write_bytes_per_user_byte", per(float64(a.proc.writeBytes-b.proc.writeBytes), float64(in.userBytes)), "ratio"},
		{"storage.tables_end", float64(a.engines.tables), "count"},
		{"replication.updates_per_write", per(float64(a.cluster.Replication.Enqueued-b.cluster.Replication.Enqueued), writes), "count"},
		{"replication.pending_at_fg_end", perRound(traced, func(rd round) float64 { return float64(rd.pendingRepl) }), "count"},
		{"replication.violations", float64(a.cluster.Replication.Violations - b.cluster.Replication.Violations), "count"},
		{"maint.index_applies_per_write", per(float64(sp.indexApplies), writes), "count"},
		{"maint.pending_at_fg_end", perRound(traced, func(rd round) float64 { return float64(rd.pendingMaint) }), "count"},
		{"drain_s", perRound(traced, func(rd round) float64 { return rd.drain.Seconds() }), "s"},
		{"admission.shed", float64(shed(a.cluster) - shed(b.cluster)), "count"},
		{"gc.allocs_per_op", per(float64(a.proc.allocs-b.proc.allocs), n), "count"},
		{"gc.alloc_bytes_per_op", per(float64(a.proc.allocBytes-b.proc.allocBytes), n), "B"},
		{"gc.cycles", float64(a.proc.gcCycles - b.proc.gcCycles), "count"},
		{"gc.pause_ms", (a.proc.gcPause - b.proc.gcPause) * 1e3, "ms"},
	}
	byModule, err := flatCPUByModule(traced.cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpu profile:", err)
	}
	for _, m := range cpuModules {
		out = append(out, metric{"cpu." + m + "_us_per_op", per(float64(byModule[m])/1e3, n), "us"})
	}
	out = append(out,
		metric{"trace.untraced_throughput_ops_s", throughput(untraced), "ops/s"},
		metric{"trace.traced_throughput_ops_s", throughput(traced), "ops/s"},
		metric{"trace.untraced_cpu_us_per_op", cpuPerOp(untraced), "us"},
		metric{"trace.traced_cpu_us_per_op", cpuPerOp(traced), "us"},
	)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtFloats(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	return b.String()
}

func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
}
