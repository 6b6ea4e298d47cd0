// Command scads-ctl is the operator tool for running storage nodes: it
// speaks the same binary TCP protocol the coordinator uses and lets an
// operator ping nodes, dump per-node statistics, read raw keys, scan
// key ranges, and drop ranges during manual repartitioning.
//
// Usage (every flag goes before the subcommand; flag parsing stops at
// the first non-flag argument):
//
//	scads-ctl -addr host:7070 ping
//	scads-ctl -addr host:7070 stats
//	scads-ctl -addr host:7070 -ns tbl.users -key user0001 get
//	scads-ctl -addr host:7070 -ns tbl.users -start a -end z -limit 20 scan
//	scads-ctl -addr a:7070,b:7070 stats        # fan out to many nodes
//	scads-ctl -addr host:7070 -ns tbl.users -start a -end b droprange
//	scads-ctl -addr host:7070 -ns tbl.users watermark
//	scads-ctl -addr host:7070 -ns tbl.users -start a -end b fence
//	scads-ctl -addr host:7070 -ns tbl.users -start a -end b unfence
//	scads-ctl -addr coord:7071 repairs     # coordinator admin port
//	scads-ctl -addr coord:7071 tenants     # admission quota/shed counters
//
// watermark prints the namespace's apply epoch/sequence — the delta
// baseline online migrations catch up from (plus the node's highest
// accepted record version, the freshness signal failover ranks
// replicas by); comparing a donor's watermark across two probes shows
// whether it is still taking writes. fence/unfence install and lift a
// migration write fence by hand (repair tooling; the migration manager
// drives them itself). stats includes the node's installed fence
// count. repairs queries a *coordinator's* admin listener (see
// scads.Cluster.AdminHandler) for the self-healing loop's counters and
// in-flight repair jobs.
//
// Keys are given as text; pass -hex to supply hex-encoded binary keys
// (index namespaces use order-preserving binary encodings).
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"scads/internal/rpc"
)

func main() {
	var (
		addrs = flag.String("addr", "127.0.0.1:7070", "node address(es), comma-separated")
		ns    = flag.String("ns", "", "namespace (tbl.<table> or idx.<index>)")
		key   = flag.String("key", "", "key for get")
		start = flag.String("start", "", "range start (inclusive) for scan/droprange")
		end   = flag.String("end", "", "range end (exclusive; empty = to namespace end)")
		limit = flag.Int("limit", 50, "max records for scan")
		isHex = flag.Bool("hex", false, "keys/bounds are hex-encoded binary")
	)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		flag.Usage()
		os.Exit(2)
	}

	tr := rpc.NewTCPTransport()
	exit := 0
	for _, addr := range strings.Split(*addrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if err := runOne(tr, addr, cmd, params{
			ns: *ns, key: *key, start: *start, end: *end, limit: *limit, hex: *isHex,
		}); err != nil {
			log.Printf("%s: %v", addr, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

type params struct {
	ns, key, start, end string
	limit               int
	hex                 bool
}

func (p params) decode(s string) ([]byte, error) {
	if s == "" {
		return nil, nil
	}
	if p.hex {
		return hex.DecodeString(s)
	}
	return []byte(s), nil
}

func runOne(tr rpc.Transport, addr, cmd string, p params) error {
	switch cmd {
	case "ping":
		resp, err := tr.Call(addr, rpc.Request{Method: rpc.MethodPing})
		if err != nil {
			return err
		}
		if e := resp.Error(); e != nil {
			return e
		}
		fmt.Printf("%s: ok\n", addr)
		return nil

	case "stats":
		resp, err := tr.Call(addr, rpc.Request{Method: rpc.MethodStats})
		if err != nil {
			return err
		}
		if e := resp.Error(); e != nil {
			return e
		}
		fmt.Printf("%s: records=%d queue-depth=%d fenced-ranges=%d\n", addr, resp.RecordCount, resp.QueueDepth, resp.Fenced)
		return nil

	case "get":
		if p.ns == "" || p.key == "" {
			return fmt.Errorf("get needs -ns and -key")
		}
		k, err := p.decode(p.key)
		if err != nil {
			return err
		}
		resp, err := tr.Call(addr, rpc.Request{Method: rpc.MethodGet, Namespace: p.ns, Key: k})
		if err != nil {
			return err
		}
		if e := resp.Error(); e != nil {
			return e
		}
		if !resp.Found {
			fmt.Printf("%s: (not found)\n", addr)
			return nil
		}
		fmt.Printf("%s: version=%d value=%s\n", addr, resp.Version, printable(resp.Value))
		return nil

	case "scan":
		if p.ns == "" {
			return fmt.Errorf("scan needs -ns")
		}
		s, err := p.decode(p.start)
		if err != nil {
			return err
		}
		e, err := p.decode(p.end)
		if err != nil {
			return err
		}
		resp, err := tr.Call(addr, rpc.Request{
			Method: rpc.MethodScan, Namespace: p.ns, Start: s, End: e, Limit: p.limit,
		})
		if err != nil {
			return err
		}
		if er := resp.Error(); er != nil {
			return er
		}
		for _, rec := range resp.Records {
			fmt.Printf("%s: key=%s version=%d value=%s\n",
				addr, printable(rec.Key), rec.Version, printable(rec.Value))
		}
		fmt.Printf("%s: %d record(s)\n", addr, len(resp.Records))
		return nil

	case "droprange":
		if p.ns == "" {
			return fmt.Errorf("droprange needs -ns")
		}
		s, err := p.decode(p.start)
		if err != nil {
			return err
		}
		e, err := p.decode(p.end)
		if err != nil {
			return err
		}
		resp, err := tr.Call(addr, rpc.Request{
			Method: rpc.MethodDropRange, Namespace: p.ns, Start: s, End: e,
		})
		if err != nil {
			return err
		}
		if er := resp.Error(); er != nil {
			return er
		}
		fmt.Printf("%s: range dropped (%d memtable records unlinked)\n", addr, resp.RecordCount)
		return nil

	case "watermark":
		if p.ns == "" {
			return fmt.Errorf("watermark needs -ns")
		}
		resp, err := tr.Call(addr, rpc.Request{
			Method: rpc.MethodRangeSnapshot, Namespace: p.ns, Limit: -1,
		})
		if err != nil {
			return err
		}
		if er := resp.Error(); er != nil {
			return er
		}
		fmt.Printf("%s: epoch=%d seq=%d\n", addr, resp.Epoch, resp.Watermark)
		return nil

	case "tenants":
		resp, err := tr.Call(addr, rpc.Request{Method: rpc.MethodTenants})
		if err != nil {
			return err
		}
		if er := resp.Error(); er != nil {
			return er
		}
		fmt.Printf("%s: in-flight=%d total-sheds=%d\n", addr, resp.QueueDepth, resp.RecordCount)
		for _, line := range strings.Split(strings.TrimRight(string(resp.Value), "\n"), "\n") {
			fmt.Printf("%s:   %s\n", addr, line)
		}
		return nil

	case "repairs":
		resp, err := tr.Call(addr, rpc.Request{Method: rpc.MethodRepairs})
		if err != nil {
			return err
		}
		if er := resp.Error(); er != nil {
			return er
		}
		fmt.Printf("%s: %d repair job(s) in flight\n", addr, resp.RecordCount)
		for _, line := range strings.Split(strings.TrimRight(string(resp.Value), "\n"), "\n") {
			fmt.Printf("%s:   %s\n", addr, line)
		}
		return nil

	case "fence", "unfence":
		if p.ns == "" {
			return fmt.Errorf("%s needs -ns", cmd)
		}
		s, err := p.decode(p.start)
		if err != nil {
			return err
		}
		e, err := p.decode(p.end)
		if err != nil {
			return err
		}
		resp, err := tr.Call(addr, rpc.Request{
			Method: rpc.MethodRangeFence, Namespace: p.ns,
			Start: s, End: e, Fence: cmd == "fence",
		})
		if err != nil {
			return err
		}
		if er := resp.Error(); er != nil {
			return er
		}
		fmt.Printf("%s: %sd\n", addr, cmd)
		return nil

	default:
		return fmt.Errorf("unknown command %q (ping, stats, get, scan, droprange, watermark, fence, unfence, repairs, tenants)", cmd)
	}
}

// printable renders a value, hex-escaping non-text bytes (index keys
// use binary order-preserving encodings).
func printable(b []byte) string {
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			return "0x" + hex.EncodeToString(b)
		}
	}
	return string(b)
}
