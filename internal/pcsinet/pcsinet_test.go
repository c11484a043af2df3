package pcsinet

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/platform"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	return startSeeded(t, core.DefaultOptions().Seed)
}

func startSeeded(t *testing.T, seed int64) (*Server, *Client) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Media = media.DRAM
	opts.Seed = seed
	srv := NewServer(core.New(opts))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestCreatePutGetOverTCP(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "linearizable", "MUTABLE", false)
	if err != nil {
		t.Fatal(err)
	}
	if tok == "" {
		t.Fatal("empty token")
	}
	if err := cl.Put(tok, []byte("network payload")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(tok)
	if err != nil || !bytes.Equal(got, []byte("network payload")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestStatAndFreeze(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(tok, make([]byte, 123)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Freeze(tok, "IMMUTABLE"); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Stat(tok)
	if err != nil {
		t.Fatal(err)
	}
	if info["size"] != "123" || info["mutability"] != "IMMUTABLE" {
		t.Errorf("Stat = %v", info)
	}
	if err := cl.Put(tok, []byte("x")); err == nil {
		t.Error("write to frozen object over TCP succeeded")
	}
}

func TestAttenuationOverTCP(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := cl.Attenuate(tok, "read")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ro, []byte("x")); err == nil {
		t.Error("write through read-only token succeeded")
	}
	if _, err := cl.Get(ro); err != nil {
		t.Errorf("read through read-only token failed: %v", err)
	}
	// Amplification must fail.
	if _, err := cl.Attenuate(ro, "read|write"); err == nil {
		t.Error("amplification over TCP succeeded")
	}
}

func TestUnknownTokenRejected(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Get("ref-forged"); err == nil {
		t.Error("forged token accepted")
	}
	if err := cl.Put("", nil); err == nil {
		t.Error("empty token accepted")
	}
}

func TestNamespaceOverTCP(t *testing.T) {
	_, cl := startServer(t)
	ns, root, err := cl.NewNamespace()
	if err != nil {
		t.Fatal(err)
	}
	if ns == "" || root == "" {
		t.Fatal("missing tokens")
	}
	if _, err := cl.CreateAt(ns, "data/a.txt", "regular"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateAt(ns, "data/b.txt", "regular"); err != nil {
		t.Fatal(err)
	}
	names, err := cl.List(ns, "data")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a.txt" || names[1] != "b.txt" {
		t.Errorf("List = %v", names)
	}
	wtok, err := cl.Open(ns, "data/a.txt", "read|write")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(wtok, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	rtok, err := cl.Open(ns, "data/a.txt", "read")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(rtok)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := cl.Remove(ns, "data/b.txt"); err != nil {
		t.Fatal(err)
	}
	names, err = cl.List(ns, "data")
	if err != nil || len(names) != 1 {
		t.Errorf("List after remove = %v, %v", names, err)
	}
}

func TestInvokeOverTCP(t *testing.T) {
	srv, cl := startServer(t)
	fnTok, err := srv.RegisterFunction(core.FnConfig{
		Name: "upper", Kind: platform.Wasm,
		Handler: func(fc *core.FnCtx) error {
			in, err := fc.Client.Get(fc.Proc(), fc.Inputs[0])
			if err != nil {
				return err
			}
			return fc.Client.Put(fc.Proc(), fc.Outputs[0], bytes.ToUpper(in))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(in, []byte("shout")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Invoke(fnTok, []string{in}, []string{out}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(out)
	if err != nil || string(got) != "SHOUT" {
		t.Fatalf("function output = %q, %v", got, err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["invocations"] != "1" {
		t.Errorf("stats = %v", stats)
	}
}

func TestDropOverTCP(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Drop(tok); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(tok); err == nil {
		t.Error("dropped token still works")
	}
}

func TestBadRequests(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Create("alien-kind", "", "", false); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := cl.Create("regular", "quantum", "", false); err == nil {
		t.Error("bad consistency accepted")
	}
	if _, err := cl.Create("regular", "", "SOMETIMES", false); err == nil {
		t.Error("bad mutability accepted")
	}
	if _, err := cl.call("warp", "", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op err = %v", err)
	}
}

func TestEphemeralOverTCP(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(tok, []byte("scratch")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(tok)
	if err != nil || string(got) != "scratch" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestMultipleConnections(t *testing.T) {
	srv, cl1 := startServer(t)
	addr := srv.ln.Addr().String()
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	tok, err := cl1.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl1.Put(tok, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	// Tokens are connection-independent capabilities.
	got, err := cl2.Get(tok)
	if err != nil || string(got) != "shared" {
		t.Fatalf("cross-connection Get = %q, %v", got, err)
	}
}

func TestSocketOverTCP(t *testing.T) {
	_, cl := startServer(t)
	conn, err := cl.Create("socket", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SockSend(conn, "client", []byte("request")); err != nil {
		t.Fatal(err)
	}
	msg, err := cl.SockRecv(conn, "server")
	if err != nil || string(msg) != "request" {
		t.Fatalf("SockRecv = %q, %v", msg, err)
	}
	if err := cl.SockSend(conn, "server", []byte("response")); err != nil {
		t.Fatal(err)
	}
	msg, err = cl.SockRecv(conn, "client")
	if err != nil || string(msg) != "response" {
		t.Fatalf("SockRecv = %q, %v", msg, err)
	}
	if err := cl.SockClose(conn); err != nil {
		t.Fatal(err)
	}
	if err := cl.SockSend(conn, "client", []byte("late")); err == nil {
		t.Error("send after close succeeded over TCP")
	}
}

// virtualNow reads the deployment's clock through the stats op.
func virtualNow(t *testing.T, cl *Client) time.Duration {
	t.Helper()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	d, err := time.ParseDuration(st["virtual_now"])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Sequential gets over TCP advance the daemon's virtual clock by their
// simulated service time (well under a millisecond each), not by a fixed
// step per request, and by the same amount on every run with one seed.
func TestVirtualClockFollowsServiceTime(t *testing.T) {
	const n = 50
	advance := func() time.Duration {
		_, cl := startSeeded(t, 7)
		tok, err := cl.Create("regular", "linearizable", "", false)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Put(tok, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		start := virtualNow(t, cl)
		for i := 0; i < n; i++ {
			if _, err := cl.Get(tok); err != nil {
				t.Fatal(err)
			}
		}
		return virtualNow(t, cl) - start
	}
	a, b := advance(), advance()
	t.Logf("%d gets advanced the clock by %v", n, a)
	if a <= 0 || a >= n*time.Millisecond {
		t.Fatalf("%d gets advanced the clock by %v, want more than 0 and under %v", n, a, n*time.Millisecond)
	}
	if a != b {
		t.Fatalf("same seed, same requests: clock advanced %v then %v", a, b)
	}
}

// serverGoroutines counts the goroutines running Server code: the accept
// loop and one per connection. It reads stacks rather than
// runtime.NumGoroutine, which also counts the runtime's finalizer goroutine
// while that runs a finalizer (closed sockets have them).
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "pcsinet.(*Server).") {
			n++
		}
	}
	return n
}

// settleServerGoroutines waits for goroutines that are finishing to exit
// and returns how many Server goroutines are left.
func settleServerGoroutines(want int) int {
	for i := 0; serverGoroutines() > want && i < 1000; i++ {
		runtime.Gosched()
	}
	return serverGoroutines()
}

// Close closes live connections and waits for their goroutines: the count
// of goroutines running Server code returns to its starting value.
func TestCloseWaitsForConnections(t *testing.T) {
	base := settleServerGoroutines(0)
	srv := NewServer(core.New(core.DefaultOptions()))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 3; i++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Stats(); err != nil { // the connection is being served
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	if got := serverGoroutines(); got != base+4 {
		t.Fatalf("%d Server goroutines with three connections, want %d", got, base+4)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := settleServerGoroutines(base); got != base {
		t.Fatalf("%d Server goroutines after Close, want %d", got, base)
	}
	if _, err := clients[0].Stats(); err == nil {
		t.Fatal("a call on a connection closed by the server succeeded")
	}
}
