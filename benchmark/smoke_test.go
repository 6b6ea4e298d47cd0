package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// toy shrinks a workload to a size that runs in seconds.
func toy(s spec) spec {
	s.ops = 1200
	if s.social {
		s.users, s.friends, s.warmup = 200, 5, 300
	} else {
		s.profiles, s.warmup = 2000, 500
	}
	return s
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	toMap := func(ms []declaredMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	return toMap(b.EndToEnd), toMap(b.PerLayer)
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that the outputs pass, both background queues are empty when
// the window closes, the JSON line carries exactly the metrics
// BENCHMARK.json declares, and the report prints every metric of the
// workload by name.
func TestSmoke(t *testing.T) {
	e2e, layers := declared(t)
	if !sameKeys(e2e, reported) {
		t.Fatalf("BENCHMARK.json end_to_end %v, program reports %v", keys(e2e), reported)
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			s := toy(specs[name])
			printed := []string{"setup_s", "throughput_ops_s", "point_p50_ms", "p999_ms", "cpu_us_per_op", "max_rss_mb", "error_ratio"}
			if s.social {
				printed = append(printed, "scan_p50_ms", "join_p50_ms", "write_p50_ms")
			} else {
				printed = append(printed, "multiget_p50_ms")
			}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				res, err := run(config{spec: s, seed: 7, trace: traced, setups: 2, work: t.TempDir(), out: &out})
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", traced, err, out.String())
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", traced, res.correct, res.failed, res.attempted, out.String())
				}
				if !res.drainedAtClose {
					t.Fatalf("trace=%v: background queues not empty when the window closed", traced)
				}
				want := e2e
				if traced {
					want = layers
					if !strings.Contains(out.String(), "tracing overhead") {
						t.Errorf("traced report does not print the tracing overhead")
					}
				}
				got := res.summary().Metrics
				if len(got) != len(want) {
					t.Errorf("trace=%v: JSON has %d metrics, BENCHMARK.json declares %d", traced, len(got), len(want))
				}
				for n, unit := range want {
					if m, ok := got[n]; !ok || m.Unit != unit {
						t.Errorf("trace=%v: metric %s: got %+v, want unit %s", traced, n, m, unit)
					}
				}
				for _, n := range printed {
					if !strings.Contains(out.String(), n) {
						t.Errorf("trace=%v: report does not print %s\n%s", traced, n, out.String())
					}
				}
			}
		})
	}
}

func sameKeys(m map[string]string, names []string) bool {
	if len(m) != len(names) {
		return false
	}
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestModuleOf pins the CPU-profile attribution of symbols to modules.
func TestModuleOf(t *testing.T) {
	for sym, want := range map[string]string{
		"scads.(*Cluster).Query":                   "scads",
		"scads/internal/storage.(*Namespace).Get":  "storage",
		"scads/internal/keycodec.Encode":           "other",
		"runtime.mallocgc":                         "runtime",
		"internal/runtime/syscall.Syscall6":        "syscall",
		"syscall.Syscall":                          "syscall",
		"net.(*conn).Write":                        "other",
		"scads/internal/rpc.(*Batcher).Call.func1": "rpc",
	} {
		if got := moduleOf(sym); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
