package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/argonne-first/first/internal/perfmodel"
)

func TestAllocateSingleNode(t *testing.T) {
	c := New("test", 2, 8, perfmodel.A100_40)
	a, err := c.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	if a.GPUs() != 4 || len(a.Parts) != 1 {
		t.Fatalf("allocation = %+v", a)
	}
	st := c.Status()
	if st.FreeGPUs != 12 || st.FreeNodes != 1 {
		t.Errorf("status = %+v", st)
	}
	c.Release(a)
	st = c.Status()
	if st.FreeGPUs != 16 || st.FreeNodes != 2 {
		t.Errorf("status after release = %+v", st)
	}
}

func TestBestFitPacking(t *testing.T) {
	// §3.2.2 co-location: a 6-GPU instance plus two small ones should pack
	// onto one node, keeping the other whole node free.
	c := New("test", 2, 8, perfmodel.A100_40)
	big, err := c.Allocate(6)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Parts[0].NodeID != big.Parts[0].NodeID || s2.Parts[0].NodeID != big.Parts[0].NodeID {
		t.Errorf("small instances did not co-locate: big on %d, small on %d/%d",
			big.Parts[0].NodeID, s1.Parts[0].NodeID, s2.Parts[0].NodeID)
	}
	if st := c.Status(); st.FreeNodes != 1 {
		t.Errorf("free nodes = %d, want 1 (packing preserved a whole node)", st.FreeNodes)
	}
}

func TestMultiNodeAllocation(t *testing.T) {
	// A 405B-class instance: 32 GPUs = 4 whole nodes.
	c := New("test", 6, 8, perfmodel.A100_40)
	a, err := c.Allocate(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Parts) != 4 {
		t.Fatalf("parts = %d, want 4 nodes", len(a.Parts))
	}
	if a.GPUs() != 32 {
		t.Errorf("gpus = %d", a.GPUs())
	}
	if st := c.Status(); st.FreeNodes != 2 {
		t.Errorf("free nodes = %d", st.FreeNodes)
	}
}

func TestMultiNodeNeedsWholeNodes(t *testing.T) {
	c := New("test", 2, 8, perfmodel.A100_40)
	if _, err := c.Allocate(1); err != nil {
		t.Fatal(err)
	}
	// 16 GPUs would need 2 whole nodes; one is partially used.
	_, err := c.Allocate(16)
	var insufficient ErrInsufficient
	if !errors.As(err, &insufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestAllocateInsufficient(t *testing.T) {
	c := New("test", 1, 8, perfmodel.A100_40)
	if _, err := c.Allocate(9); err == nil {
		t.Error("9 GPUs on an 8-GPU cluster should fail")
	}
	if _, err := c.Allocate(0); err == nil {
		t.Error("zero-GPU request should fail")
	}
	if _, err := c.Allocate(-1); err == nil {
		t.Error("negative request should fail")
	}
}

func TestDoubleReleaseIsNoop(t *testing.T) {
	c := New("test", 1, 8, perfmodel.A100_40)
	a, _ := c.Allocate(4)
	c.Release(a)
	c.Release(a)
	c.Release(nil)
	if st := c.Status(); st.FreeGPUs != 8 {
		t.Errorf("free GPUs = %d after double release", st.FreeGPUs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestExhaustion(t *testing.T) {
	c := New("test", 3, 4, perfmodel.A100_40)
	var allocs []*Allocation
	for i := 0; i < 3; i++ {
		a, err := c.Allocate(4)
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, a)
	}
	if _, err := c.Allocate(1); err == nil {
		t.Error("exhausted cluster accepted an allocation")
	}
	c.Release(allocs[1])
	if _, err := c.Allocate(2); err != nil {
		t.Errorf("allocation after release failed: %v", err)
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		c := New("prop", 4, 8, perfmodel.A100_40)
		var live []*Allocation
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				idx := int(op) % len(live)
				c.Release(live[idx])
				live = append(live[:idx], live[idx+1:]...)
			} else {
				n := int(op%10) + 1
				if a, err := c.Allocate(n); err == nil {
					live = append(live, a)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, a := range live {
			c.Release(a)
		}
		st := c.Status()
		return st.FreeGPUs == 32 && st.FreeNodes == 4 && c.CheckInvariants() == nil
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Error(err)
	}
}

// TestFreeGPUsCounterTracksStatus drives random single-node and multi-node
// allocations, releases, and double releases, checking after every
// operation that the lock-free FreeGPUs counter equals the locked
// Status().FreeGPUs sum and that CheckInvariants (which also checks the
// counter against the nodes) holds.
func TestFreeGPUsCounterTracksStatus(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New("prop", 6, 4, perfmodel.A100_40)
		var live, released []*Allocation
		check := func(op string) {
			t.Helper()
			if got, want := c.FreeGPUs(), c.Status().FreeGPUs; got != want {
				t.Fatalf("seed %d after %s: FreeGPUs() = %d, Status().FreeGPUs = %d", seed, op, got, want)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d after %s: %v", seed, op, err)
			}
		}
		check("New")
		for i := 0; i < 300; i++ {
			switch r := rng.Intn(10); {
			case r < 5:
				// 1..4 fits one node; 5..12 spans two or three whole nodes.
				n := 1 + rng.Intn(4)
				if rng.Intn(3) == 0 {
					n = 5 + rng.Intn(8)
				}
				if a, err := c.Allocate(n); err == nil {
					live = append(live, a)
				}
				check("Allocate")
			case r < 8 && len(live) > 0:
				j := rng.Intn(len(live))
				a := live[j]
				live = append(live[:j], live[j+1:]...)
				c.Release(a)
				released = append(released, a)
				check("Release")
			case len(released) > 0:
				c.Release(released[rng.Intn(len(released))])
				check("double Release")
			}
		}
		for _, a := range live {
			c.Release(a)
		}
		check("drain")
		if got := c.FreeGPUs(); got != 24 {
			t.Fatalf("seed %d: FreeGPUs() = %d after releasing everything, want 24", seed, got)
		}
	}
}

func TestPresetClusters(t *testing.T) {
	sophia := NewSophia()
	if sophia.Name() != "sophia" || sophia.NodeCount() != 24 {
		t.Errorf("sophia = %s/%d nodes", sophia.Name(), sophia.NodeCount())
	}
	if st := sophia.Status(); st.TotalGPUs != 192 {
		t.Errorf("sophia GPUs = %d, want 192 (24×8 DGX-A100)", st.TotalGPUs)
	}
	polaris := NewPolaris()
	if polaris.Status().TotalGPUs != 160 {
		t.Errorf("polaris GPUs = %d", polaris.Status().TotalGPUs)
	}
}

func TestAllocationNodes(t *testing.T) {
	c := New("test", 4, 8, perfmodel.A100_40)
	a, _ := c.Allocate(16)
	nodes := a.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
}

func TestGPUSpecExposed(t *testing.T) {
	c := New("test", 1, 8, perfmodel.A100_80)
	if c.GPU().Name != "A100-80GB" {
		t.Errorf("gpu = %s", c.GPU().Name)
	}
	empty := New("empty", 0, 0, perfmodel.A100_40)
	if empty.GPU().Name != "" {
		t.Error("empty cluster should report zero GPU spec")
	}
}
