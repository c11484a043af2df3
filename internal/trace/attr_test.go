package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// exportAttrs exports one span carrying attrs and returns the JSON.
func exportAttrs(t *testing.T, attrs []Attr) []byte {
	t.Helper()
	d := &Data{Runs: []Run{{Label: "run1", Spans: []*Span{
		{ID: 7, Cat: "c", Name: "n", Track: "t", End: 1, Attrs: attrs},
	}}}}
	var buf bytes.Buffer
	if err := Export(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Int attributes are rendered at export time; the output must be byte for
// byte what pre-rendering with fmt.Sprintf("%d") produced.
func TestIntAttrExportsAsDecimal(t *testing.T) {
	vals := []int64{0, 1, -1, -42, math.MaxInt64, math.MinInt64}
	var ints, strs []Attr
	for i, v := range vals {
		k := fmt.Sprintf("k%d", i)
		ints = append(ints, Int(k, v))
		strs = append(strs, Str(k, fmt.Sprintf("%d", v)))
	}
	got := exportAttrs(t, ints)
	if want := exportAttrs(t, strs); !bytes.Equal(got, want) {
		t.Fatalf("Int export differs from the %%d rendering:\n got %s\nwant %s", got, want)
	}
	golden := `"args":{"k0":"0","k1":"1","k2":"-1","k3":"-42","k4":"9223372036854775807","k5":"-9223372036854775808","span":7}`
	if !strings.Contains(string(got), golden) {
		t.Fatalf("export %s does not contain %s", got, golden)
	}
}

// A recorded span owns its attributes: the caller's slice may be reused.
func TestStartCopiesAttrs(t *testing.T) {
	d := collect(t, func() {
		env := sim.NewEnv(1)
		env.Go("p", func(p *sim.Proc) {
			attrs := []Attr{Int("n", 1)}
			sp := Of(env).Start(p, "c", "s", attrs...)
			attrs[0] = Int("n", 2)
			sp.Close(p)
		})
		env.Run()
	})
	if got := d.Runs[0].Spans[0].Attrs[0].Value(); got != "1" {
		t.Fatalf("span attr = %s after the caller reused its slice, want 1", got)
	}
}

// Span sites on a nil tracer or nil span allocate nothing, attributes
// included.
func TestUntracedSpanSitesDoNotAllocate(t *testing.T) {
	env := sim.NewEnv(1)
	env.Go("p", func(p *sim.Proc) {
		tr := Of(env)
		allocs := testing.AllocsPerRun(100, func() {
			sp := tr.Start(p, "c", "s", Int("a", 1), Int("b", math.MaxInt64), Str("c", "x"))
			sp.Annotate(Int("bytes", 1024))
			sp.Close(p)
			tr.Instant("track", "c", "i", Int("a", -1))
		})
		if allocs != 0 {
			t.Errorf("untraced span sites: %v allocs per run, want 0", allocs)
		}
	})
	env.Run()
}
