package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/sim"
)

// users-zipf: many simulated users, each a closed loop of think, then one
// Get or Put on a Zipf-popular linearizable object (the Cloudburst shape).
const (
	usersN        = 50000
	usersObjects  = 16384
	usersObjSize  = 1024
	usersZipfS    = 1.1
	usersPutFrac  = 0.05
	usersThink    = 2 * time.Second
	usersDuration = 10 * time.Second
	usersMemAt    = 5 * time.Second // after every user has started
)

// usersInputs are generated from the seed once and shared by every rep.
type usersInputs struct {
	seed   int64
	keyOf  []int // popularity rank -> object index
	zipf   zipf
	filler []byte
}

func newUsersInputs(seed int64) *usersInputs {
	r := newRNG(seed, 1<<40)
	in := &usersInputs{seed: seed, keyOf: r.perm(usersObjects), zipf: newZipf(usersObjects, usersZipfS)}
	in.filler = make([]byte, usersObjSize)
	for i := range in.filler {
		in.filler[i] = byte(r.next())
	}
	return in
}

// payload is an object's content for one write: key index and write
// sequence up front, seeded filler after.
func (in *usersInputs) payload(key int, seq uint64) []byte {
	b := append([]byte(nil), in.filler...)
	binary.LittleEndian.PutUint64(b[0:], uint64(key))
	binary.LittleEndian.PutUint64(b[8:], seq)
	return b
}

// usersOnce is one rep: a fresh deployment, setup, then the measured run.
func usersOnce(in *usersInputs, o *outcome, profile bool, acc *cpuAcc) (*simRep, error) {
	rep := &simRep{}
	t0 := time.Now()
	opts := core.DefaultOptions()
	opts.Seed = in.seed
	c := core.New(opts)
	env := c.Env()
	var clients []*core.Client
	for _, n := range c.Cluster().Nodes() {
		clients = append(clients, c.ClientAt(n.ID))
	}
	refs := make([]core.Ref, usersObjects)
	var setupErr error
	for w, cl := range clients {
		env.Go("setup", func(p *sim.Proc) {
			for k := w; k < usersObjects; k += len(clients) {
				r, err := cl.Create(p, object.Regular)
				if err == nil {
					err = cl.Put(p, r, in.payload(k, 0))
				}
				if err != nil {
					setupErr = err
					return
				}
				refs[k] = r
			}
		})
	}
	drain(env)
	if setupErr != nil {
		return nil, fmt.Errorf("setup: %w", setupErr)
	}
	rep.setupS = secondsSince(t0)

	// Per-key write history for the linearizability check: ackAt[k][seq]
	// is the virtual time Put seq was acknowledged (-1 while in flight);
	// lastStart[k] is the latest start time of any acknowledged Put.
	ackAt := make([][]sim.Time, usersObjects)
	lastStart := make([]sim.Time, usersObjects)
	for k := range ackAt {
		ackAt[k] = []sim.Time{0}
		lastStart[k] = -1
	}
	start := env.Now()
	end := start.Add(usersDuration)
	get := func(p *sim.Proc, cl *core.Client, k int) {
		floor := lastStart[k]
		t := p.Now()
		data, err := cl.Get(p, refs[k])
		rep.getLat = append(rep.getLat, int64(p.Now().Sub(t)))
		rep.ops++
		if err != nil {
			o.fail("users-zipf: get key %d: %v", k, err)
			return
		}
		if len(data) != usersObjSize {
			o.fail("users-zipf: get key %d: %d bytes", k, len(data))
			return
		}
		key := binary.LittleEndian.Uint64(data[0:])
		seq := binary.LittleEndian.Uint64(data[8:])
		switch {
		case key != uint64(k) || seq >= uint64(len(ackAt[k])):
			o.fail("users-zipf: get key %d returned key %d seq %d", k, key, seq)
		case ackAt[k][seq] >= 0 && ackAt[k][seq] < floor:
			// A Put that started after seq was acknowledged was itself
			// acknowledged before this Get began: the value is stale.
			o.fail("users-zipf: get key %d returned overwritten seq %d", k, seq)
		}
	}
	put := func(p *sim.Proc, cl *core.Client, k int) {
		seq := uint64(len(ackAt[k]))
		ackAt[k] = append(ackAt[k], -1)
		t := p.Now()
		err := cl.Put(p, refs[k], in.payload(k, seq))
		rep.putLat = append(rep.putLat, int64(p.Now().Sub(t)))
		rep.ops++
		if err != nil {
			o.fail("users-zipf: put key %d: %v", k, err)
			return
		}
		ackAt[k][seq] = p.Now()
		if t > lastStart[k] {
			lastStart[k] = t
		}
	}
	for u := 0; u < usersN; u++ {
		cl := clients[u%len(clients)]
		env.Go("user", func(p *sim.Proc) {
			r := newRNG(in.seed, uint64(u))
			p.Sleep(time.Duration(r.float() * float64(usersThink)))
			for p.Now() < end {
				k := in.keyOf[in.zipf.rank(r.float())]
				if r.float() < usersPutFrac {
					put(p, cl, k)
				} else {
					get(p, cl, k)
				}
				p.Sleep(time.Duration(r.exp(float64(usersThink))))
			}
		})
	}

	if err := rep.measure(c, start.Add(usersMemAt), profile, acc); err != nil {
		return nil, err
	}
	return rep, nil
}

func runUsers(cfg config) (*outcome, error) {
	in := newUsersInputs(cfg.seed)
	o := newOutcome()
	reps, acc, err := repeatSim(cfg, o, "users-zipf", func(profile bool, acc *cpuAcc) (*simRep, error) {
		return usersOnce(in, o, profile, acc)
	})
	if err != nil {
		return nil, err
	}
	o.env = append(o.env, fmt.Sprintf("users=%d objects=%d zipf_s=%g put_frac=%g think_mean=%v virtual_run=%v",
		usersN, usersObjects, usersZipfS, usersPutFrac, usersThink, usersDuration))
	simEndToEnd(o, reps)
	if cfg.trace {
		simLayers(o, reps, acc)
		zeroLayers(o)
	}
	return o, nil
}
