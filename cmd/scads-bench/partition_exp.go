package main

import (
	"errors"
	"fmt"
	"time"

	"scads"
	"scads/internal/clock"
	"scads/internal/expgrid"
	"scads/internal/planner"
)

// runE10 reproduces §3.3.1's contention example end-to-end: two
// datacenters disconnect (modelled as a severed replication link plus
// a crashed primary), making the availability SLA and the staleness
// bound unsatisfiable at once. The namespace's declared priority order
// decides the outcome; the contention is noted for the
// director/operators either way.
func runE10(expgrid.Params) (expgrid.Metrics, error) {
	m := make(expgrid.Metrics)
	run := func(priority string) (served, failed, stale int, noted scads.ContentionStats) {
		vc := clock.NewVirtual(t0)
		lc, err := scads.NewLocalCluster(2, scads.Config{Clock: vc, ReplicationFactor: 2})
		must(err)
		defer lc.Close()
		must(lc.DefineSchema(socialDDL))
		must(lc.ApplyConsistency(fmt.Sprintf(
			"namespace users { staleness: 5s; priority: %s; }", priority)))

		m, _ := lc.Router().Map(planner.TableNamespace("users"))
		primary := m.Ranges()[0].Replicas[0]
		secondary := m.Ranges()[0].Replicas[1]

		// Seed v1 everywhere, then partition and write v2.
		must(lc.Insert("users", scads.Row{"id": "a", "name": "v1", "birthday": 1}))
		lc.Pump().Drain(100)
		lc.PartitionReplica(secondary)
		must(lc.Insert("users", scads.Row{"id": "a", "name": "v2", "birthday": 1}))
		lc.Pump().Drain(100)
		vc.Advance(10 * time.Second)
		lc.CrashNode(primary)

		for i := 0; i < 100; i++ {
			r, _, err := lc.Get("users", scads.Row{"id": "a"})
			switch {
			case errors.Is(err, scads.ErrStaleReplicas):
				failed++
			case err == nil:
				served++
				if r["name"] == "v1" {
					stale++
				}
			}
		}
		return served, failed, stale, lc.Contention()
	}

	fmt.Printf("%-36s %8s %8s %8s %14s\n",
		"priority order", "served", "failed", "stale", "noted-events")
	for _, order := range []struct{ prio, metric string }{
		{"availability > read-consistency", "avail_first"},
		{"read-consistency > availability", "consistency_first"},
	} {
		served, failed, stale, noted := run(order.prio)
		fmt.Printf("%-36s %8d %8d %8d %14d\n", order.prio, served, failed, stale, noted.Total)
		m[order.metric+"_served"] = float64(served)
		m[order.metric+"_failed"] = float64(failed)
		m[order.metric+"_stale"] = float64(stale)
		m[order.metric+"_noted_events"] = float64(noted.Total)
		m[order.metric+"_noted_stale_served"] = float64(noted.StaleServed)
		m[order.metric+"_noted_reads_failed"] = float64(noted.ReadsFailed)
	}
	fmt.Println("\navailability-first keeps serving (every answer is the stale v1);")
	fmt.Println("read-consistency-first fails every read instead. Both orders note the")
	fmt.Println("contention so the director/operators can re-provision (§3.3.1).")
	return m, nil
}
