package pcsinet

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Server serves a PCSI deployment over TCP. Requests are serialised
// through the deterministic simulator one at a time; each request runs as
// a simulation process on the goroutine of its connection.
type Server struct {
	cloud  *core.Cloud
	client *core.Client
	ln     net.Listener

	mu     sync.Mutex // held for each request: one timeline, one request at a time
	tokens map[string]core.Ref
	nss    map[string]*core.NS
	fns    map[string]core.Ref

	connMu sync.Mutex // guards conns and closed
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // the accept loop and every serveConn
}

// NewServer wraps a deployment. Functions registered through
// RegisterFunction become invokable by token.
func NewServer(cloud *core.Cloud) *Server {
	return &Server{
		cloud:  cloud,
		client: cloud.NewClient(0),
		tokens: make(map[string]core.Ref),
		nss:    make(map[string]*core.NS),
		fns:    make(map[string]core.Ref),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for tests)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the server: it stops accepting, closes every live
// connection, and returns once their goroutines have finished (a request
// being served completes first; its response write then fails).
func (s *Server) Close() error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close() //nolint:errcheck // the connection is being abandoned
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close() //nolint:errcheck // accepted after Close
			return
		}
		go s.serveConn(conn)
	}
}

// track registers a connection for Close, unless the server is closed.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	conn.Close() //nolint:errcheck // Close may have closed it already
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.wg.Done()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.untrack(conn)
	r := bufio.NewReader(conn)
	for {
		req, err := ReadFrame(r)
		if err != nil {
			return
		}
		resp := s.dispatch(req)
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// newToken mints an unguessable token.
func newToken(prefix string) string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}

// runSim executes fn as a simulation process on the calling goroutine and
// returns when it finishes, leaving whatever it set in motion queued. The
// whole server shares one virtual timeline, which advances by the
// request's simulated latency.
func (s *Server) runSim(fn func(p *sim.Proc) error) error {
	var ferr error
	if !s.cloud.Env().RunProc("rpc", func(p *sim.Proc) { ferr = fn(p) }) {
		return errors.New("pcsinet: request did not complete")
	}
	return ferr
}

// RegisterFunction registers a handler on the deployment and returns the
// token clients invoke it by.
func (s *Server) RegisterFunction(cfg core.FnConfig) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ref core.Ref
	err := s.runSim(func(p *sim.Proc) error {
		var rerr error
		ref, rerr = s.client.RegisterFunction(p, cfg)
		return rerr
	})
	if err != nil {
		return "", err
	}
	tok := newToken("fn")
	s.fns[tok] = ref
	return tok, nil
}

func parseKind(sk string) (object.Kind, error) {
	switch strings.ToLower(sk) {
	case "", "regular", "file":
		return object.Regular, nil
	case "directory", "dir":
		return object.Directory, nil
	case "fifo":
		return object.FIFO, nil
	case "socket":
		return object.Socket, nil
	case "device":
		return object.Device, nil
	default:
		return 0, fmt.Errorf("unknown kind %q", sk)
	}
}

func parseLevel(sl string) (consistency.Level, error) {
	switch strings.ToLower(sl) {
	case "", "linearizable", "strong":
		return consistency.Linearizable, nil
	case "eventual", "weak":
		return consistency.Eventual, nil
	default:
		return 0, fmt.Errorf("unknown consistency %q", sl)
	}
}

func parseMutability(sm string) (object.Mutability, error) {
	switch strings.ToUpper(sm) {
	case "", "MUTABLE":
		return object.Mutable, nil
	case "APPEND_ONLY":
		return object.AppendOnly, nil
	case "FIXED_SIZE":
		return object.FixedSize, nil
	case "IMMUTABLE":
		return object.Immutable, nil
	default:
		return 0, fmt.Errorf("unknown mutability %q", sm)
	}
}

func parseRights(sr string) (capability.Rights, error) {
	if sr == "" || sr == "all" {
		return capability.All, nil
	}
	var r capability.Rights
	for _, part := range strings.Split(sr, "|") {
		switch strings.ToLower(strings.TrimSpace(part)) {
		case "read":
			r |= capability.Read
		case "write":
			r |= capability.Write
		case "append":
			r |= capability.Append
		case "exec":
			r |= capability.Exec
		case "setmut":
			r |= capability.SetMut
		case "grant":
			r |= capability.Grant
		case "unlink":
			r |= capability.Unlink
		case "destroy":
			r |= capability.Destroy
		default:
			return 0, fmt.Errorf("unknown right %q", part)
		}
	}
	return r, nil
}

func (s *Server) refFor(token string) (core.Ref, error) {
	ref, ok := s.tokens[token]
	if !ok {
		return core.Ref{}, fmt.Errorf("unknown reference token %q", token)
	}
	return ref, nil
}

// dispatch handles one request under the server lock (requests share one
// deterministic timeline, so they serialise).
func (s *Server) dispatch(req *wire.Message) *wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := func(k string) string {
		if req.Headers == nil {
			return ""
		}
		return req.Headers[k]
	}
	switch req.Op {
	case OpCreate:
		kind, err := parseKind(h("kind"))
		if err != nil {
			return errResp(err)
		}
		lvl, err := parseLevel(h("consistency"))
		if err != nil {
			return errResp(err)
		}
		mut, err := parseMutability(h("mutability"))
		if err != nil {
			return errResp(err)
		}
		opts := []core.CreateOpt{core.WithConsistency(lvl), core.WithMutability(mut)}
		if h("ephemeral") == "true" {
			opts = append(opts, core.WithEphemeral())
		}
		var ref core.Ref
		err = s.runSim(func(p *sim.Proc) error {
			var rerr error
			ref, rerr = s.client.Create(p, kind, opts...)
			return rerr
		})
		if err != nil {
			return errResp(err)
		}
		tok := newToken("ref")
		s.tokens[tok] = ref
		return okResp(nil, map[string]string{"token": tok})

	case OpPut, OpAppend:
		ref, err := s.refFor(req.Key)
		if err != nil {
			return errResp(err)
		}
		err = s.runSim(func(p *sim.Proc) error {
			if req.Op == OpAppend {
				return s.client.Append(p, ref, req.Body)
			}
			return s.client.Put(p, ref, req.Body)
		})
		if err != nil {
			return errResp(err)
		}
		return okResp(nil, nil)

	case OpGet:
		ref, err := s.refFor(req.Key)
		if err != nil {
			return errResp(err)
		}
		var data []byte
		err = s.runSim(func(p *sim.Proc) error {
			var rerr error
			data, rerr = s.client.Get(p, ref)
			return rerr
		})
		if err != nil {
			return errResp(err)
		}
		return okResp(data, nil)

	case OpFreeze:
		ref, err := s.refFor(req.Key)
		if err != nil {
			return errResp(err)
		}
		mut, err := parseMutability(h("level"))
		if err != nil {
			return errResp(err)
		}
		if err := s.runSim(func(p *sim.Proc) error { return s.client.Freeze(p, ref, mut) }); err != nil {
			return errResp(err)
		}
		return okResp(nil, nil)

	case OpStat:
		ref, err := s.refFor(req.Key)
		if err != nil {
			return errResp(err)
		}
		var info core.StatInfo
		err = s.runSim(func(p *sim.Proc) error {
			var rerr error
			info, rerr = s.client.Stat(p, ref)
			return rerr
		})
		if err != nil {
			return errResp(err)
		}
		return okResp(nil, map[string]string{
			"kind":       info.Kind.String(),
			"size":       strconv.FormatInt(info.Size, 10),
			"version":    strconv.FormatUint(info.Version, 10),
			"mutability": info.Mutability.String(),
		})

	case OpAttenu:
		ref, err := s.refFor(req.Key)
		if err != nil {
			return errResp(err)
		}
		rights, err := parseRights(h("rights"))
		if err != nil {
			return errResp(err)
		}
		nr, err := s.client.Attenuate(ref, rights)
		if err != nil {
			return errResp(err)
		}
		tok := newToken("ref")
		s.tokens[tok] = nr
		return okResp(nil, map[string]string{"token": tok})

	case OpDrop:
		ref, err := s.refFor(req.Key)
		if err != nil {
			return errResp(err)
		}
		s.client.Drop(ref)
		delete(s.tokens, req.Key)
		return okResp(nil, nil)

	case OpMkdirNS:
		var ns *core.NS
		var root core.Ref
		err := s.runSim(func(p *sim.Proc) error {
			var rerr error
			ns, root, rerr = s.client.NewNamespace(p)
			return rerr
		})
		if err != nil {
			return errResp(err)
		}
		tok := newToken("ns")
		s.nss[tok] = ns
		rootTok := newToken("ref")
		s.tokens[rootTok] = root
		return okResp(nil, map[string]string{"token": tok, "root": rootTok})

	case OpCreateAt, OpOpen, OpList, OpRemove:
		ns, ok := s.nss[req.Key]
		if !ok {
			return errResp(fmt.Errorf("unknown namespace token %q", req.Key))
		}
		return s.nsOp(ns, req)

	case OpInvoke:
		fnRef, ok := s.fns[req.Key]
		if !ok {
			return errResp(fmt.Errorf("unknown function token %q", req.Key))
		}
		var inputs, outputs []core.Ref
		for _, tok := range splitList(h("inputs")) {
			ref, err := s.refFor(tok)
			if err != nil {
				return errResp(err)
			}
			inputs = append(inputs, ref)
		}
		for _, tok := range splitList(h("outputs")) {
			ref, err := s.refFor(tok)
			if err != nil {
				return errResp(err)
			}
			outputs = append(outputs, ref)
		}
		err := s.runSim(func(p *sim.Proc) error {
			_, ierr := s.client.Invoke(p, fnRef, core.InvokeArgs{Inputs: inputs, Outputs: outputs, Body: req.Body})
			return ierr
		})
		if err != nil {
			return errResp(err)
		}
		return okResp(nil, nil)

	case OpSockSend, OpSockRecv, OpSockEnd:
		ref, err := s.refFor(req.Key)
		if err != nil {
			return errResp(err)
		}
		end := core.ClientEnd
		if h("end") == "server" || h("end") == "1" {
			end = core.ServerEnd
		}
		switch req.Op {
		case OpSockSend:
			if err := s.runSim(func(p *sim.Proc) error {
				return s.client.SockSend(p, ref, end, req.Body)
			}); err != nil {
				return errResp(err)
			}
			return okResp(nil, nil)
		case OpSockRecv:
			var msg []byte
			if err := s.runSim(func(p *sim.Proc) error {
				var rerr error
				msg, rerr = s.client.SockRecv(p, ref, end)
				return rerr
			}); err != nil {
				return errResp(err)
			}
			return okResp(msg, nil)
		default:
			if err := s.runSim(func(p *sim.Proc) error {
				return s.client.SockClose(p, ref)
			}); err != nil {
				return errResp(err)
			}
			return okResp(nil, nil)
		}

	case OpStats:
		rt := s.cloud.Runtime()
		return okResp(nil, map[string]string{
			"invocations": strconv.FormatInt(rt.Invocations.Value(), 10),
			"cold_starts": strconv.FormatInt(rt.ColdStarts.Value(), 10),
			"bytes_moved": strconv.FormatInt(s.cloud.BytesMoved, 10),
			"cache_hits":  strconv.FormatInt(s.cloud.CacheHits, 10),
			"virtual_now": s.cloud.Env().Now().String(),
		})

	default:
		return errResp(fmt.Errorf("unknown op %q", req.Op))
	}
}

func (s *Server) nsOp(ns *core.NS, req *wire.Message) *wire.Message {
	h := func(k string) string {
		if req.Headers == nil {
			return ""
		}
		return req.Headers[k]
	}
	path := h("path")
	switch req.Op {
	case OpCreateAt:
		kind, err := parseKind(h("kind"))
		if err != nil {
			return errResp(err)
		}
		var ref core.Ref
		err = s.runSim(func(p *sim.Proc) error {
			var rerr error
			ref, rerr = ns.CreateAt(p, s.client, path, kind)
			return rerr
		})
		if err != nil {
			return errResp(err)
		}
		tok := newToken("ref")
		s.tokens[tok] = ref
		return okResp(nil, map[string]string{"token": tok})
	case OpOpen:
		rights, err := parseRights(h("rights"))
		if err != nil {
			return errResp(err)
		}
		var ref core.Ref
		err = s.runSim(func(p *sim.Proc) error {
			var rerr error
			ref, rerr = ns.Open(p, s.client, path, rights)
			return rerr
		})
		if err != nil {
			return errResp(err)
		}
		tok := newToken("ref")
		s.tokens[tok] = ref
		return okResp(nil, map[string]string{"token": tok})
	case OpList:
		var names []string
		err := s.runSim(func(p *sim.Proc) error {
			var rerr error
			names, rerr = ns.List(p, s.client, path)
			return rerr
		})
		if err != nil {
			return errResp(err)
		}
		return okResp([]byte(strings.Join(names, "\n")), nil)
	case OpRemove:
		if err := s.runSim(func(p *sim.Proc) error { return ns.Remove(p, s.client, path) }); err != nil {
			return errResp(err)
		}
		return okResp(nil, nil)
	}
	return errResp(errors.New("unreachable"))
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
