package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"sort"

	"scads/internal/row"
	"scads/internal/workload"
)

// socialDDL is the paper's §3.2 social schema, as scads-loadgen
// declares it.
const socialDDL = `
ENTITY users (
    id string PRIMARY KEY,
    name string,
    birthday int
)
ENTITY friendships (
    f1 string,
    f2 string,
    PRIMARY KEY (f1, f2),
    CARDINALITY f1 5000,
    CARDINALITY f2 5000
)
QUERY findUser
SELECT * FROM users WHERE id = ?user LIMIT 1
QUERY friends
SELECT * FROM friendships WHERE f1 = ?user LIMIT 5000
QUERY friendsWithUpcomingBirthdays
SELECT p.* FROM friendships f JOIN users p ON f.f2 = p.id
WHERE f.f1 = ?user ORDER BY p.birthday LIMIT 50
`

// profileDDL is the key-value table of profile-cold.
const profileDDL = `
ENTITY profiles (
    id string PRIMARY KEY,
    body string
)
`

// joinLimit is the LIMIT of friendsWithUpcomingBirthdays.
const joinLimit = 50

// spec describes one workload: its data, its op mix and its size.
type spec struct {
	name string
	// Social workloads: users with about friends friends each, ops
	// drawn from mix by workload.Social.
	social  bool
	mix     workload.Mix
	users   int
	friends int
	// Key-value workload: profiles rows of valueBytes each, read by
	// Get (getShare percent) and multiGet-key GetMulti.
	profiles   int
	valueBytes int
	getShare   int
	multiGet   int
	// cacheBytes shrinks each node's row cache and block cache to
	// this size; 0 keeps scads-server's defaults.
	cacheBytes int64
	// opsPerSecond converts --seconds into the fixed op count; it is
	// the drain-inclusive rate of the workload on a 2-vCPU x86-64
	// container, so one run measures about --seconds.
	opsPerSecond int
	// ops and warmup are the measured and warm-up op counts.
	ops    int
	warmup int
}

var specs = map[string]spec{
	"social-read": {
		name: "social-read", social: true, mix: workload.ReadHeavyMix,
		users: 2000, friends: 10, opsPerSecond: 9500,
	},
	"social-write": {
		name: "social-write", social: true, mix: workload.WriteHeavyMix,
		users: 2000, friends: 10, opsPerSecond: 2200,
	},
	"profile-cold": {
		name: "profile-cold", profiles: 64000, valueBytes: 1024,
		getShare: 75, multiGet: 8, cacheBytes: 4 << 20, opsPerSecond: 14000,
	},
}

// workloadNames lists the workloads in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sized fixes the measured and warm-up op counts for a run of about
// seconds seconds.
func (s spec) sized(seconds int) spec {
	s.ops = s.opsPerSecond * seconds
	if s.social {
		s.warmup = 3 * s.users
	} else {
		s.warmup = s.profiles / 2
	}
	return s
}

// opKind is one client request class.
type opKind uint8

const (
	opFindUser  opKind = iota // Query findUser
	opFriends                 // Query friends
	opBirthdays               // Query friendsWithUpcomingBirthdays
	opInsert                  // Insert into users or friendships
	opDelete                  // Delete from friendships
	opGet                     // Get from profiles
	opGetMulti                // GetMulti from profiles
	numOpKinds
)

var opKindNames = [numOpKinds]string{"findUser", "friends", "friendsWithUpcomingBirthdays", "insert", "delete", "get", "getMulti"}

// class is the latency class an op kind reports under.
type class uint8

const (
	classPoint class = iota
	classScan
	classJoin
	classMultiget
	classWrite
	numClasses
)

var classNames = [numClasses]string{"point", "scan", "join", "multiget", "write"}

func (k opKind) class() class {
	switch k {
	case opFindUser, opGet:
		return classPoint
	case opFriends:
		return classScan
	case opBirthdays:
		return classJoin
	case opGetMulti:
		return classMultiget
	default:
		return classWrite
	}
}

// op is one generated client request.
type op struct {
	kind  opKind
	user  string  // social: the user the op is about; friendships f1
	other string  // social: friendships f2
	row   row.Row // opInsert: the row written
	keys  []int32 // profile-cold: profile indexes read
}

func (o op) table() string {
	if o.kind == opInsert && o.other == "" {
		return "users"
	}
	return "friendships"
}

// inputs is everything a run drives, generated from the seed before
// any system exists.
type inputs struct {
	spec spec
	// Social data: initial profiles and both directions of every seed
	// friendship.
	profiles []row.Row
	edges    [][2]string
	// filler backs profile-cold values.
	filler []byte
	warmup []op
	ops    []op
	// owner assigns each measured op to a client. All writes to one
	// row come from one client, in sequence order, so the final state
	// is the sequential replay of ops.
	owner []uint8
	// userBytes is the encoded size of every row a measured op writes.
	userBytes int64
	writes    int
}

func generate(s spec, seed int64) (*inputs, error) {
	in := &inputs{spec: s}
	if s.social {
		gen := workload.NewSocial(seed, s.users, 5000, s.mix)
		for i := 0; i < s.users; i++ {
			in.profiles = append(in.profiles, gen.ProfileRow(i))
		}
		in.edges = gen.SeedGraph(s.friends)
		rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
		for _, u := range rnd.Perm(s.users)[:min(s.users, s.warmup/3)] {
			uid := workload.UserID(u)
			in.warmup = append(in.warmup, op{kind: opFindUser, user: uid},
				op{kind: opFriends, user: uid}, op{kind: opBirthdays, user: uid})
		}
		for i := 0; i < s.ops; i++ {
			in.ops = append(in.ops, socialOp(gen.Next()))
		}
	} else {
		rnd := rand.New(rand.NewSource(seed))
		in.filler = make([]byte, 4*s.valueBytes)
		for i := range in.filler {
			in.filler[i] = 'a' + byte(rnd.Intn(26))
		}
		next := func() op {
			if rnd.Intn(100) < s.getShare {
				return op{kind: opGet, keys: []int32{int32(rnd.Intn(s.profiles))}}
			}
			keys := make([]int32, s.multiGet)
			for j := range keys {
				keys[j] = int32(rnd.Intn(s.profiles))
			}
			return op{kind: opGetMulti, keys: keys}
		}
		for i := 0; i < s.warmup; i++ {
			in.warmup = append(in.warmup, next())
		}
		for i := 0; i < s.ops; i++ {
			in.ops = append(in.ops, next())
		}
	}
	in.owner = make([]uint8, len(in.ops))
	for i, o := range in.ops {
		in.owner[i] = uint8(i % clients)
		if s.social {
			h := fnv.New32a()
			h.Write([]byte(o.user))
			in.owner[i] = uint8(h.Sum32() % clients)
		}
		switch o.kind {
		case opInsert:
			b, err := row.Encode(o.row)
			if err != nil {
				return nil, fmt.Errorf("encode op %d: %w", i, err)
			}
			in.userBytes += int64(len(b))
			in.writes++
		case opDelete:
			b, err := row.Encode(row.Row{"f1": o.user, "f2": o.other})
			if err != nil {
				return nil, fmt.Errorf("encode op %d: %w", i, err)
			}
			in.userBytes += int64(len(b))
			in.writes++
		}
	}
	return in, nil
}

func socialOp(w workload.Op) op {
	switch w.Kind {
	case workload.OpViewProfile:
		return op{kind: opFindUser, user: w.UserID}
	case workload.OpViewFriends:
		return op{kind: opFriends, user: w.UserID}
	case workload.OpViewBirthdays:
		return op{kind: opBirthdays, user: w.UserID}
	case workload.OpAddFriend:
		return op{kind: opInsert, user: w.UserID, other: w.Friend, row: row.Row{"f1": w.UserID, "f2": w.Friend}}
	case workload.OpRemoveFriend:
		return op{kind: opDelete, user: w.UserID, other: w.Friend}
	default: // OpUpdateProfile, OpNewUser
		return op{kind: opInsert, user: w.UserID, row: w.Row}
	}
}

// profileKey is the primary key of the i-th profile.
func profileKey(i int32) string { return fmt.Sprintf("p%08d", i) }

// profileBody is the i-th profile's value: the CRC-32 of its key in
// hex, then filler up to valueBytes.
func (in *inputs) profileBody(i int32) string {
	key := profileKey(i)
	sum := crc32.ChecksumIEEE([]byte(key))
	n := in.spec.valueBytes - 9
	off := int(sum % uint32(len(in.filler)-n))
	return fmt.Sprintf("%08x|%s", sum, in.filler[off:off+n])
}

// validProfile reports whether r is the i-th profile: its key and the
// checksum of that key embedded in its body.
func (in *inputs) validProfile(i int32, r row.Row) bool {
	key := profileKey(i)
	body, _ := r["body"].(string)
	return r["id"] == key && len(body) == in.spec.valueBytes &&
		body[:8] == fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(key)))
}

// digests fingerprints the seeded data and the op sequence, so two
// runs can be shown to have driven identical inputs.
func (in *inputs) digests() (data, ops string) {
	d := sha256.New()
	for _, r := range in.profiles {
		fmt.Fprintf(d, "%s|%s|%d\n", r["id"], r["name"], r["birthday"])
	}
	for _, e := range in.edges {
		fmt.Fprintf(d, "%s|%s\n", e[0], e[1])
	}
	d.Write(in.filler)
	fmt.Fprintf(d, "profiles=%d bytes=%d\n", in.spec.profiles, in.spec.valueBytes)

	o := sha256.New()
	var buf [4]byte
	for _, seq := range [][]op{in.warmup, in.ops} {
		for _, x := range seq {
			fmt.Fprintf(o, "%d|%s|%s|", x.kind, x.user, x.other)
			if x.row != nil {
				fmt.Fprintf(o, "%v|%v|%v", x.row["id"], x.row["name"], x.row["birthday"])
			}
			for _, k := range x.keys {
				binary.LittleEndian.PutUint32(buf[:], uint32(k))
				o.Write(buf[:])
			}
			o.Write([]byte{'\n'})
		}
		o.Write([]byte("--\n"))
	}
	return hex.EncodeToString(d.Sum(nil))[:16], hex.EncodeToString(o.Sum(nil))[:16]
}

// socialModel is the expected final state of a social workload: the
// seeded data with every measured write replayed in sequence order.
type socialModel struct {
	profiles map[string]row.Row
	friends  map[string]map[string]bool
	written  []string // users whose profile a measured op wrote, first-write order
}

func (in *inputs) model() *socialModel {
	m := &socialModel{profiles: map[string]row.Row{}, friends: map[string]map[string]bool{}}
	for _, r := range in.profiles {
		m.profiles[r["id"].(string)] = r
	}
	link := func(a, b string, on bool) {
		if m.friends[a] == nil {
			m.friends[a] = map[string]bool{}
		}
		if on {
			m.friends[a][b] = true
		} else {
			delete(m.friends[a], b)
		}
	}
	for _, e := range in.edges {
		link(e[0], e[1], true)
	}
	seen := map[string]bool{}
	for _, o := range in.ops {
		switch {
		case o.kind == opInsert && o.table() == "users":
			m.profiles[o.user] = o.row
			if !seen[o.user] {
				seen[o.user] = true
				m.written = append(m.written, o.user)
			}
		case o.kind == opInsert:
			link(o.user, o.other, true)
		case o.kind == opDelete:
			link(o.user, o.other, false)
		}
	}
	return m
}

// users returns every user of the final state in key order.
func (m *socialModel) users() []string {
	out := make([]string, 0, len(m.profiles))
	for u := range m.profiles {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// sample picks up to n of xs, deterministically from rnd.
func sample(rnd *rand.Rand, xs []string, n int) []string {
	if len(xs) <= n {
		return xs
	}
	out := make([]string, n)
	for i, j := range rnd.Perm(len(xs))[:n] {
		out[i] = xs[j]
	}
	return out
}
