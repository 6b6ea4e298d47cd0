package main

import (
	"fmt"
	"math/rand"
	"sort"

	"scads/internal/row"
)

// checkSample is how many users each output check reads back.
const checkSample = 200

// checkSocial verifies the drained system against the model: final
// profile values through Get, friend lists through the friends query,
// and friendsWithUpcomingBirthdays against a recomputation from the
// base tables. It returns one line per check and the mismatches.
func checkSocial(sys *system, in *inputs, seed int64) (report []string, errs []error) {
	m := in.model()
	rnd := rand.New(rand.NewSource(seed ^ 0xc4ec))
	c := sys.c
	fail := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }

	written := sample(rnd, m.written, checkSample)
	for _, u := range written {
		want := m.profiles[u]
		got, found, err := c.Get("users", row.Row{"id": u})
		switch {
		case err != nil:
			fail("profile %s: %v", u, err)
		case !found:
			fail("profile %s: acked write not found", u)
		case got["name"] != want["name"] || got["birthday"] != want["birthday"]:
			fail("profile %s: got %v, want %v", u, got, want)
		}
	}
	report = append(report, fmt.Sprintf("profiles: %d acked profile writes read back", len(written)))

	users := sample(rnd, m.users(), checkSample)
	for _, u := range users {
		got, err := friendSet(sys, u)
		if err != nil {
			fail("friends %s: %v", u, err)
			continue
		}
		if !sameSet(got, m.friends[u]) {
			fail("friends %s: got %d friends, model has %d", u, len(got), len(m.friends[u]))
		}
	}
	report = append(report, fmt.Sprintf("friends: %d users match the graph model", len(users)))

	for _, u := range users {
		if err := checkJoin(sys, u); err != nil {
			fail("friendsWithUpcomingBirthdays %s: %v", u, err)
		}
	}
	report = append(report, fmt.Sprintf("join: %d users match a recomputation from users and friendships", len(users)))
	return report, errs
}

func friendSet(sys *system, u string) (map[string]bool, error) {
	rows, err := sys.c.Query("friends", map[string]any{"user": u})
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(rows))
	for _, r := range rows {
		f, _ := r["f2"].(string)
		out[f] = true
	}
	return out, nil
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkJoin recomputes u's friendsWithUpcomingBirthdays from the base
// tables (friendships, then each friend's users row) and compares it
// with the query's answer. Friends sharing a birthday may come back in
// any order, so the check compares the birthday sequence, and each
// returned row against its base row.
func checkJoin(sys *system, u string) error {
	got, err := sys.c.Query("friendsWithUpcomingBirthdays", map[string]any{"user": u})
	if err != nil {
		return err
	}
	friends, err := friendSet(sys, u)
	if err != nil {
		return err
	}
	pks := make([]row.Row, 0, len(friends))
	for f := range friends {
		pks = append(pks, row.Row{"id": f})
	}
	base := map[string]row.Row{}
	var want []int64
	if len(pks) > 0 {
		rows, found, err := sys.c.GetMulti("users", pks)
		if err != nil {
			return err
		}
		for i, r := range rows {
			if !found[i] {
				continue
			}
			base[r["id"].(string)] = r
			want = append(want, r["birthday"].(int64))
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(want) > joinLimit {
		want = want[:joinLimit]
	}
	if len(got) != len(want) {
		var extra []string
		for _, r := range got {
			if id, _ := r["id"].(string); base[id] == nil {
				extra = append(extra, id)
			}
		}
		return fmt.Errorf("got %d rows, base tables give %d; rows of non-friends: %v", len(got), len(want), extra)
	}
	seen := map[string]bool{}
	for i, r := range got {
		id, _ := r["id"].(string)
		b, ok := base[id]
		switch {
		case !ok:
			return fmt.Errorf("row %d: %s is not a friend", i, id)
		case seen[id]:
			return fmt.Errorf("row %d: %s returned twice", i, id)
		case r["birthday"] != b["birthday"] || r["name"] != b["name"]:
			return fmt.Errorf("row %d: got %v, base row is %v", i, r, b)
		case r["birthday"] != want[i]:
			return fmt.Errorf("row %d: birthday %v out of order, want %d", i, r["birthday"], want[i])
		}
		seen[id] = true
	}
	return nil
}
