package core

import (
	"testing"

	"repro/internal/capability"
	"repro/internal/object"
	"repro/internal/sim"
)

// Get's tracing sites, the capability check and the op span, allocate
// nothing when no trace collector is active.
func TestUntracedGetSpanSitesDoNotAllocate(t *testing.T) {
	c := testCloud(1)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		r, err := client.Create(p, object.Regular)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Put(p, r, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := client.check(r, capability.Read); err != nil {
				t.Fatal(err)
			}
			sp := client.opSpan(p, "core.data", "get", r.cap.Object())
			sp.Close(p)
		})
		if allocs != 0 {
			t.Errorf("untraced check+opSpan: %v allocs per Get, want 0", allocs)
		}
		if _, err := client.Get(p, r); err != nil {
			t.Fatal(err)
		}
	})
}
