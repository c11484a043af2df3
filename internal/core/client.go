package core

import (
	"errors"
	"fmt"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/cost"
	"repro/internal/fncache"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Client is a PCSI session bound to an origin node. All data operations
// are charged the network and media costs of that origin, and validated
// against the capability each call presents — a stateful, reference-based
// protocol (§3.2: "references make the PCSI API stateful").
type Client struct {
	c    *Cloud
	node simnet.NodeID
	// tenant names the workload for QoS admission; "" is the default
	// tenant. Inert when the cloud runs without a controller.
	tenant string
}

// NewClient returns a client homed on a fresh node in the given rack.
func (c *Cloud) NewClient(rack int) *Client {
	return &Client{c: c, node: c.net.AddNode(rack)}
}

// ClientAt returns a client homed on an existing node (e.g., a function
// instance's node, so data ops originate where the code runs).
func (c *Cloud) ClientAt(node simnet.NodeID) *Client {
	return &Client{c: c, node: node}
}

// Node returns the client's origin node.
func (cl *Client) Node() simnet.NodeID { return cl.node }

// Cloud returns the owning deployment.
func (cl *Client) Cloud() *Cloud { return cl.c }

// WithTenant returns a copy of the client attributed to the named tenant:
// its operations queue in (and are weighted by) that tenant's WFQ queues
// when the cloud has a QoS controller, and its function invocations carry
// the tenant in their placement hints.
func (cl *Client) WithTenant(name string) *Client {
	c2 := *cl
	c2.tenant = name
	return &c2
}

// Tenant returns the client's tenant name ("" = default).
func (cl *Client) Tenant() string { return cl.tenant }

// admit gates one data-plane operation through the admission controller.
// With no controller (the historical configuration) it is an inlined
// no-op returning the zero Grant.
func (cl *Client) admit(p *sim.Proc, class qos.Class) (qos.Grant, error) {
	return cl.c.qos.Admit(p, qos.Request{Tenant: cl.tenant, Class: class})
}

// CreateOpt mutates creation parameters.
type CreateOpt func(*createParams)

type createParams struct {
	lvl       consistency.Level
	mut       object.Mutability
	ephemeral bool
}

// WithConsistency sets the object's default consistency level.
func WithConsistency(l consistency.Level) CreateOpt {
	return func(p *createParams) { p.lvl = l }
}

// WithMutability sets the object's initial mutability level.
func WithMutability(m object.Mutability) CreateOpt {
	return func(p *createParams) { p.mut = m }
}

// check validates the reference's rights; this is the single, local
// capability check that replaces REST's per-request re-authentication.
// Traced runs record each check as an instant event on the capability
// track — the check itself costs zero virtual time, which is the point.
func (cl *Client) check(r Ref, need capability.Rights) error {
	err := cl.checkErr(r, need)
	if t := trace.Of(cl.c.env); t != nil {
		traceCheck(t, r, need, err)
	}
	return err
}

// traceCheck records one capability check. Like every span helper on the
// data path it is kept out of line, so untraced callers' frames stay small.
//
//go:noinline
func traceCheck(t *trace.Tracer, r Ref, need capability.Rights, err error) {
	attrs := []trace.Attr{
		trace.Int("obj", int64(r.cap.Object())),
		trace.Str("need", need.String()),
	}
	if err != nil {
		attrs = append(attrs, trace.Str("denied", err.Error()))
	}
	t.Instant("capability", "cap", "check", attrs...)
}

func (cl *Client) checkErr(r Ref, need capability.Rights) error {
	if !r.Valid() {
		return ErrInvalidRef
	}
	if err := cl.c.caps.Check(r.cap, need); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// observe records a data operation's latency.
func (cl *Client) observe(p *sim.Proc, start sim.Time) {
	cl.c.DataLat.Observe(p.Now().Sub(start))
}

// opSpan opens a span for one client operation: cat "core.data" for payload
// ops, "core.meta" for metadata-only ops. The span nests under whatever the
// calling process has open (a function's exec span, a task span, ...).
// Untraced, it is one nil check.
func (cl *Client) opSpan(p *sim.Proc, cat, name string, obj object.ID) *trace.Span {
	if t := trace.Of(cl.c.env); t != nil {
		return startOpSpan(t, p, cat, name, obj, cl.node)
	}
	return nil
}

// startOpSpan is opSpan's traced path, kept out of line like traceCheck.
//
//go:noinline
func startOpSpan(t *trace.Tracer, p *sim.Proc, cat, name string, obj object.ID, origin simnet.NodeID) *trace.Span {
	return t.Start(p, cat, name, trace.Int("obj", int64(obj)), trace.Int("origin", int64(origin)))
}

// Create makes a new object and returns a full-rights reference to it.
func (cl *Client) Create(p *sim.Proc, kind object.Kind, opts ...CreateOpt) (Ref, error) {
	params := createParams{lvl: consistency.Linearizable, mut: object.Mutable}
	for _, o := range opts {
		o(&params)
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return Ref{}, qerr
	}
	defer g.Release()
	sp := trace.Of(cl.c.env).Start(p, "core.data", "create", trace.Int("origin", int64(cl.node)))
	defer sp.Close(p)
	start := p.Now()
	if params.ephemeral {
		id := cl.c.newEphem(cl.node, kind)
		if params.mut != object.Mutable {
			if err := cl.c.ephem[id].obj.SetMutability(params.mut); err != nil {
				return Ref{}, err
			}
		}
		p.Sleep(media.DRAM.WriteLatency)
		cl.observe(p, start)
		return Ref{cap: cl.c.caps.Mint(id, capability.All), lvl: params.lvl}, nil
	}
	var id object.ID
	err := cl.c.do(p, "core.create", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.create"); ferr != nil {
			return ferr
		}
		var cerr error
		id, cerr = cl.c.grp.Create(p, cl.node, kind)
		return cerr
	})
	if err != nil {
		return Ref{}, err
	}
	if params.mut != object.Mutable {
		err = cl.c.grp.Apply(p, cl.node, id, consistency.Linearizable, 0, func(o *object.Object) error {
			return o.SetMutability(params.mut)
		})
		if err != nil {
			return Ref{}, err
		}
	}
	cl.observe(p, start)
	return Ref{cap: cl.c.caps.Mint(id, capability.All), lvl: params.lvl}, nil
}

// beginWrite opens a coherence write on r's object when the colocated
// cache may lease it: the epoch bump drops every holder BEFORE the store
// mutates (so no entry outlives the data it copied), and the invalidation
// fan-out is charged one message per holder. The returned closure ends the
// write and must run even when the store operation fails.
func (cl *Client) beginWrite(p *sim.Proc, r Ref) func() {
	fc := cl.c.fncache
	if fc == nil || r.lvl != consistency.Linearizable {
		return func() {}
	}
	key := fncache.Key(r.cap.Object())
	for _, h := range fc.BeginWrite(key) {
		cl.c.net.Send(p, cl.node, simnet.NodeID(h), 64) // invalidate message
	}
	return func() { fc.EndWrite(key) }
}

// Put replaces an object's payload.
func (cl *Client) Put(p *sim.Proc, r Ref, data []byte) error {
	if err := cl.check(r, capability.Write); err != nil {
		return err
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return qerr
	}
	defer g.Release()
	sp := cl.opSpan(p, "core.data", "put", r.cap.Object())
	sp.Annotate(trace.Int("bytes", int64(len(data))))
	defer sp.Close(p)
	if e, ok := cl.c.ephemOf(r.cap.Object()); ok {
		// Whole-object writes migrate the single copy to the writer: data
		// lives where it was produced, so a co-scheduled consumer reads it
		// locally (§4.1).
		e.owner = cl.node
		return cl.ephemMutate(p, e, len(data), func(o *object.Object) error {
			return o.SetData(data)
		})
	}
	start := p.Now()
	endWrite := cl.beginWrite(p, r)
	defer endWrite()
	cl.c.BytesMoved += int64(len(data))
	err := cl.c.do(p, "core.put", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.put"); ferr != nil {
			return ferr
		}
		return cl.c.grp.Apply(p, cl.node, r.cap.Object(), r.lvl, len(data), func(o *object.Object) error {
			return o.SetData(data)
		})
	})
	if err == nil {
		// Stage the written content locally; it becomes servable if the
		// object is later frozen (cache-stable, §3.3).
		cl.c.cacheFor(cl.node)[r.cap.Object()] = &cacheEntry{data: append([]byte(nil), data...)}
		cl.c.Meter.Charge("write", cost.PCSIBook.WriteCost(int64(len(data))))
	}
	cl.observe(p, start)
	return err
}

// Get returns an object's full payload. Reads of frozen objects whose
// content is cached on the client's node are served locally without
// touching the network — logical disaggregation without physical
// disaggregation (§4.1).
func (cl *Client) Get(p *sim.Proc, r Ref) ([]byte, error) {
	if err := cl.check(r, capability.Read); err != nil {
		return nil, err
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return nil, qerr
	}
	defer g.Release()
	sp := cl.opSpan(p, "core.data", "get", r.cap.Object())
	defer sp.Close(p)
	if e, ok := cl.c.ephemOf(r.cap.Object()); ok {
		return cl.ephemGet(p, e)
	}
	start := p.Now()
	if e, ok := cl.c.cacheFor(cl.node)[r.cap.Object()]; ok && e.stable {
		cl.c.CacheHits++
		sp.Annotate(trace.Str("cache", "hit"))
		return cl.serveLocal(p, e.data, start), nil
	}
	// Lease path: a linearizable read served from the colocated cache skips
	// both the network round trip and the primary's per-object lock — the
	// Cloudburst win.
	fc := cl.c.fncache
	leased := fc != nil && r.lvl == consistency.Linearizable
	var epochAtRead uint64
	if leased {
		data, epoch, ok := cl.leaseGet(p, r, sp)
		if ok {
			return cl.serveLocal(p, data, start), nil
		}
		epochAtRead = epoch
	}
	var data []byte
	var frozen bool
	var kind object.Kind
	err := cl.c.do(p, "core.get", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.get"); ferr != nil {
			return ferr
		}
		return cl.c.grp.View(p, cl.node, r.cap.Object(), r.lvl, func(o *object.Object) error {
			data = o.Read()
			frozen = o.Mutability() == object.Immutable
			kind = o.Kind()
			return nil
		})
	})
	if err == nil {
		// Pull-through: remote reads populate the local cache; the entry
		// is servable immediately when the object is already frozen.
		cl.c.cacheFor(cl.node)[r.cap.Object()] = &cacheEntry{data: append([]byte(nil), data...), stable: frozen}
		cl.c.Meter.Charge("read", cost.PCSIBook.ReadCost(int64(len(data)), r.lvl == consistency.Linearizable))
		if leased && kind == object.Regular {
			// Only plain payload objects are cached: FIFOs, sockets, and
			// directories mutate through verbs the lease directory does not
			// hook.
			cl.leaseFill(p, r, data, epochAtRead)
		}
	}
	cl.c.BytesMoved += int64(len(data))
	cl.observe(p, start)
	return data, err
}

// ephemGet is Get's path for an ephemeral object, kept out of Get's frame.
func (cl *Client) ephemGet(p *sim.Proc, e *ephemObj) ([]byte, error) {
	var data []byte
	err := cl.ephemView(p, e, int(e.obj.Size()), func(o *object.Object) error {
		data = o.Read()
		return nil
	})
	return data, err
}

// serveLocal completes a Get served from the client node's memory (a
// stable cache entry or a lease hit) and returns a copy of data.
func (cl *Client) serveLocal(p *sim.Proc, data []byte, start sim.Time) []byte {
	p.Sleep(media.DRAM.ReadCost(int64(len(data))))
	cl.c.Meter.Charge("read", cost.PCSIBook.ReadCost(int64(len(data)), false))
	cl.observe(p, start)
	return append([]byte(nil), data...)
}

// leaseGet looks r's object up in the colocated cache's lease directory.
// Validity is audited on every hit: an entry whose fill stamp trails the
// store's newest is a coherence violation, not a staleness allowance. On a
// miss it returns the key's epoch, under which the remote read's result
// may later fill the directory.
func (cl *Client) leaseGet(p *sim.Proc, r Ref, sp *trace.Span) (data []byte, epoch uint64, ok bool) {
	fc := cl.c.fncache
	key := fncache.Key(r.cap.Object())
	data, stamp, ok := fc.LeaseGet(int(cl.node), key, p.Now())
	if !ok {
		return nil, fc.Epoch(key), false
	}
	if newest, have := cl.c.grp.NewestStamp(r.cap.Object()); have && stamp.Less(newest) {
		fc.StaleLeaseServes.Inc()
	}
	sp.Annotate(trace.Str("fncache", "hit"))
	return data, 0, true
}

// leaseFill fills the lease directory after a remote read, under the epoch
// recorded before the read: a write that slipped in between bumped it and
// the fill is refused.
func (cl *Client) leaseFill(p *sim.Proc, r Ref, data []byte, epochAtRead uint64) {
	stamp, _ := cl.c.grp.PrimaryStamp(r.cap.Object())
	cl.c.fncache.LeaseFill(int(cl.node), fncache.Key(r.cap.Object()), data, stamp, epochAtRead, p.Now())
}

// GetAt reads at a specific consistency level, overriding the reference's
// default — the per-operation menu of §3.3.
func (cl *Client) GetAt(p *sim.Proc, r Ref, lvl consistency.Level) ([]byte, error) {
	if err := cl.check(r, capability.Read); err != nil {
		return nil, err
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return nil, qerr
	}
	defer g.Release()
	sp := cl.opSpan(p, "core.data", "get_at", r.cap.Object())
	defer sp.Close(p)
	start := p.Now()
	var data []byte
	err := cl.c.do(p, "core.get_at", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.get_at"); ferr != nil {
			return ferr
		}
		var gerr error
		data, gerr = cl.c.grp.Read(p, cl.node, r.cap.Object(), lvl)
		return gerr
	})
	cl.c.BytesMoved += int64(len(data))
	cl.observe(p, start)
	return data, err
}

// Append appends to an object.
func (cl *Client) Append(p *sim.Proc, r Ref, data []byte) error {
	if err := cl.check(r, capability.Append); err != nil {
		return err
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return qerr
	}
	defer g.Release()
	sp := cl.opSpan(p, "core.data", "append", r.cap.Object())
	sp.Annotate(trace.Int("bytes", int64(len(data))))
	defer sp.Close(p)
	if e, ok := cl.c.ephemOf(r.cap.Object()); ok {
		return cl.ephemMutate(p, e, len(data), func(o *object.Object) error {
			return o.Append(data)
		})
	}
	start := p.Now()
	endWrite := cl.beginWrite(p, r)
	defer endWrite()
	cl.c.BytesMoved += int64(len(data))
	err := cl.c.do(p, "core.append", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.append"); ferr != nil {
			return ferr
		}
		return cl.c.grp.Apply(p, cl.node, r.cap.Object(), r.lvl, len(data), func(o *object.Object) error {
			return o.Append(data)
		})
	})
	cl.observe(p, start)
	return err
}

// WriteAt writes data at an offset.
func (cl *Client) WriteAt(p *sim.Proc, r Ref, data []byte, off int64) error {
	if err := cl.check(r, capability.Write); err != nil {
		return err
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return qerr
	}
	defer g.Release()
	sp := cl.opSpan(p, "core.data", "write_at", r.cap.Object())
	sp.Annotate(trace.Int("bytes", int64(len(data))))
	defer sp.Close(p)
	if e, ok := cl.c.ephemOf(r.cap.Object()); ok {
		return cl.ephemMutate(p, e, len(data), func(o *object.Object) error {
			_, werr := o.WriteAt(data, off)
			return werr
		})
	}
	start := p.Now()
	endWrite := cl.beginWrite(p, r)
	defer endWrite()
	cl.c.BytesMoved += int64(len(data))
	err := cl.c.do(p, "core.write_at", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.write_at"); ferr != nil {
			return ferr
		}
		return cl.c.grp.Apply(p, cl.node, r.cap.Object(), r.lvl, len(data), func(o *object.Object) error {
			_, werr := o.WriteAt(data, off)
			return werr
		})
	})
	cl.observe(p, start)
	return err
}

// ReadAt reads up to n bytes from an offset.
func (cl *Client) ReadAt(p *sim.Proc, r Ref, off int64, n int) ([]byte, error) {
	if err := cl.check(r, capability.Read); err != nil {
		return nil, err
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return nil, qerr
	}
	defer g.Release()
	sp := cl.opSpan(p, "core.data", "read_at", r.cap.Object())
	defer sp.Close(p)
	if e, ok := cl.c.ephemOf(r.cap.Object()); ok {
		buf := make([]byte, n)
		var got int
		err := cl.ephemView(p, e, n, func(o *object.Object) error {
			var rerr error
			got, rerr = o.ReadAt(buf, off)
			return rerr
		})
		return buf[:got], err
	}
	start := p.Now()
	buf := make([]byte, n)
	var got int
	err := cl.c.do(p, "core.read_at", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.read_at"); ferr != nil {
			return ferr
		}
		return cl.c.grp.View(p, cl.node, r.cap.Object(), r.lvl, func(o *object.Object) error {
			var rerr error
			got, rerr = o.ReadAt(buf, off)
			return rerr
		})
	})
	cl.c.BytesMoved += int64(got)
	cl.observe(p, start)
	return buf[:got], err
}

// Freeze moves the object along the Figure 1 mutability lattice. Freezing
// to IMMUTABLE promotes any staged local copy to cache-stable.
func (cl *Client) Freeze(p *sim.Proc, r Ref, m object.Mutability) error {
	if err := cl.check(r, capability.SetMut); err != nil {
		return err
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return qerr
	}
	defer g.Release()
	sp := cl.opSpan(p, "core.meta", "freeze", r.cap.Object())
	sp.Annotate(trace.Str("to", m.String()))
	defer sp.Close(p)
	if e, ok := cl.c.ephemOf(r.cap.Object()); ok {
		return cl.ephemMutate(p, e, 0, func(o *object.Object) error {
			return o.SetMutability(m)
		})
	}
	endWrite := cl.beginWrite(p, r)
	defer endWrite()
	err := cl.c.do(p, "core.freeze", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.freeze"); ferr != nil {
			return ferr
		}
		return cl.c.grp.Apply(p, cl.node, r.cap.Object(), consistency.Linearizable, 0, func(o *object.Object) error {
			return o.SetMutability(m)
		})
	})
	if err == nil && m == object.Immutable {
		// The staged local copy may be stale (another node could have
		// written after we staged), so it cannot simply be promoted.
		// Drop it unless it provably matches the frozen content; the next
		// Get pulls the authoritative bytes through and caches them.
		id := r.cap.Object()
		if e, ok := cl.c.cacheFor(cl.node)[id]; ok {
			if o, gerr := cl.c.grp.Primary0Store().Get(id); gerr == nil && bytesEqual(o.Read(), e.data) {
				e.stable = true
			} else {
				delete(cl.c.cacheFor(cl.node), id)
			}
		}
	}
	return err
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Mutability reports the object's current level.
func (cl *Client) Mutability(p *sim.Proc, r Ref) (object.Mutability, error) {
	if err := cl.check(r, capability.Read); err != nil {
		return 0, err
	}
	sp := cl.opSpan(p, "core.meta", "mutability", r.cap.Object())
	defer sp.Close(p)
	if e, ok := cl.c.ephemOf(r.cap.Object()); ok {
		var m object.Mutability
		err := cl.ephemView(p, e, 0, func(o *object.Object) error {
			m = o.Mutability()
			return nil
		})
		return m, err
	}
	var m object.Mutability
	err := cl.c.grp.View(p, cl.node, r.cap.Object(), consistency.Linearizable, func(o *object.Object) error {
		m = o.Mutability()
		return nil
	})
	return m, err
}

// Push enqueues a message on a FIFO object.
func (cl *Client) Push(p *sim.Proc, r Ref, msg []byte) error {
	if err := cl.check(r, capability.Append); err != nil {
		return err
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return qerr
	}
	defer g.Release()
	sp := cl.opSpan(p, "core.data", "push", r.cap.Object())
	defer sp.Close(p)
	cl.c.BytesMoved += int64(len(msg))
	return cl.c.do(p, "core.push", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.push"); ferr != nil {
			return ferr
		}
		return cl.c.grp.Apply(p, cl.node, r.cap.Object(), consistency.Linearizable, len(msg), func(o *object.Object) error {
			return o.Push(msg)
		})
	})
}

// Pop dequeues a message from a FIFO object, blocking (with polling) until
// one is available. Pop deliberately bypasses QoS admission: a consumer
// parked on an empty queue would pin an admission slot for an unbounded
// poll, starving producers of the very tokens needed to fill the queue.
func (cl *Client) Pop(p *sim.Proc, r Ref) ([]byte, error) {
	if err := cl.check(r, capability.Read|capability.Write); err != nil {
		return nil, err
	}
	sp := cl.opSpan(p, "core.data", "pop", r.cap.Object())
	defer sp.Close(p)
	if err := cl.c.inj.OpFault(p, "core.pop"); err != nil {
		return nil, err
	}
	for {
		var msg []byte
		err := cl.c.grp.Apply(p, cl.node, r.cap.Object(), consistency.Linearizable, 0, func(o *object.Object) error {
			m, perr := o.Pop()
			if perr != nil {
				return perr
			}
			msg = m
			return nil
		})
		if err == nil {
			cl.c.BytesMoved += int64(len(msg))
			return msg, nil
		}
		if !errors.Is(err, object.ErrFIFOEmpty) {
			return nil, err
		}
		p.Sleep(cl.c.net.Profile().BaseRTT) // poll backoff
	}
}

// Attenuate derives a reference with narrowed rights.
func (cl *Client) Attenuate(r Ref, mask capability.Rights) (Ref, error) {
	nr, err := cl.c.caps.Attenuate(r.cap, mask)
	if err != nil {
		return Ref{}, err
	}
	return Ref{cap: nr, lvl: r.lvl}, nil
}

// Drop releases a reference; the object becomes collectable once
// unreachable.
func (cl *Client) Drop(r Ref) { cl.c.caps.Drop(r.cap) }

// Revoke invalidates every outstanding reference to the object behind r.
// Requires the Grant right (issuer-level authority).
func (cl *Client) Revoke(r Ref) error {
	if err := cl.check(r, capability.Grant); err != nil {
		return err
	}
	cl.c.caps.Revoke(r.cap.Object())
	return nil
}

// Stat returns kind, size, version and mutability without payload
// transfer.
type StatInfo struct {
	Kind       object.Kind
	Size       int64
	Version    uint64
	Mutability object.Mutability
}

// Stat fetches object metadata.
func (cl *Client) Stat(p *sim.Proc, r Ref) (StatInfo, error) {
	var info StatInfo
	if err := cl.check(r, capability.Read); err != nil {
		return info, err
	}
	g, qerr := cl.admit(p, qos.ClassData)
	if qerr != nil {
		return info, qerr
	}
	defer g.Release()
	sp := cl.opSpan(p, "core.meta", "stat", r.cap.Object())
	defer sp.Close(p)
	if e, ok := cl.c.ephemOf(r.cap.Object()); ok {
		err := cl.ephemView(p, e, 0, func(o *object.Object) error {
			info = StatInfo{Kind: o.Kind(), Size: o.Size(), Version: o.Version(), Mutability: o.Mutability()}
			return nil
		})
		return info, err
	}
	err := cl.c.do(p, "core.stat", func() error {
		if ferr := cl.c.inj.OpFault(p, "core.stat"); ferr != nil {
			return ferr
		}
		return cl.c.grp.View(p, cl.node, r.cap.Object(), consistency.Linearizable, func(o *object.Object) error {
			info = StatInfo{Kind: o.Kind(), Size: o.Size(), Version: o.Version(), Mutability: o.Mutability()}
			return nil
		})
	})
	return info, err
}
