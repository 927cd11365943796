// Package cluster models an HPC cluster's compute inventory: nodes with
// GPUs that serving instances are placed onto. It substitutes for Sophia
// (24 DGX-A100 nodes, 8×A100 each) and Polaris in the paper's deployment.
// Allocations are whole GPUs; multiple model instances may co-locate on one
// node (§3.2.2: "a 70B model might use 6 GPUs, while 8B and 7B models use
// the remaining 2").
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/argonne-first/first/internal/perfmodel"
)

// Node is one compute node.
type Node struct {
	ID       int
	GPUCount int
	GPU      perfmodel.GPUSpec
	// used[i] marks GPU i as allocated.
	used []bool
	free int
}

// FreeGPUs returns the node's unallocated GPU count.
func (n *Node) FreeGPUs() int { return n.free }

// Allocation is a granted set of GPUs, possibly spanning nodes (multi-node
// tensor parallel for very large models).
type Allocation struct {
	ID    int64
	Parts []AllocationPart
	gpus  int
}

// AllocationPart is the slice of one node inside an allocation.
type AllocationPart struct {
	NodeID int
	GPUs   []int
}

// GPUs returns the total GPU count of the allocation.
func (a *Allocation) GPUs() int { return a.gpus }

// Nodes returns the IDs of nodes the allocation touches.
func (a *Allocation) Nodes() []int {
	ids := make([]int, len(a.Parts))
	for i, p := range a.Parts {
		ids[i] = p.NodeID
	}
	return ids
}

// Cluster is a named pool of nodes.
type Cluster struct {
	name string

	mu      sync.Mutex
	nodes   []*Node
	nextID  int64
	granted map[int64]*Allocation

	// free mirrors Σ nodes' free GPUs. It is written only under mu (in
	// grantLocked and Release) and read lock-free by FreeGPUs, the
	// capacity rung's per-request probe.
	free atomic.Int64
}

// New builds a homogeneous cluster.
func New(name string, nodeCount, gpusPerNode int, gpu perfmodel.GPUSpec) *Cluster {
	c := &Cluster{name: name, granted: make(map[int64]*Allocation)}
	for i := 0; i < nodeCount; i++ {
		c.nodes = append(c.nodes, &Node{
			ID:       i,
			GPUCount: gpusPerNode,
			GPU:      gpu,
			used:     make([]bool, gpusPerNode),
			free:     gpusPerNode,
		})
	}
	c.free.Store(int64(nodeCount * gpusPerNode))
	return c
}

// NewSophia returns the paper's proof-of-concept cluster: 24 DGX-A100 nodes
// with 8 GPUs each.
func NewSophia() *Cluster { return New("sophia", 24, 8, perfmodel.A100_40) }

// NewPolaris returns the second federation target (§4.5), sized to Polaris'
// 4-GPU nodes (small slice of the real 560-node system).
func NewPolaris() *Cluster { return New("polaris", 40, 4, perfmodel.A100_40) }

// Name returns the cluster name.
func (c *Cluster) Name() string { return c.name }

// GPU returns the cluster's GPU spec (homogeneous clusters).
func (c *Cluster) GPU() perfmodel.GPUSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.nodes) == 0 {
		return perfmodel.GPUSpec{}
	}
	return c.nodes[0].GPU
}

// NodeCount returns the number of nodes.
func (c *Cluster) NodeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Allocate grants gpus GPUs: packed onto one node when they fit (preferring
// the fullest node that still fits, to keep whole nodes free for large
// jobs), otherwise assembled from whole free nodes.
func (c *Cluster) Allocate(gpus int) (*Allocation, error) {
	if gpus <= 0 {
		return nil, fmt.Errorf("cluster %s: invalid GPU request %d", c.name, gpus)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	perNode := 0
	if len(c.nodes) > 0 {
		perNode = c.nodes[0].GPUCount
	}
	if perNode == 0 {
		return nil, fmt.Errorf("cluster %s: no nodes", c.name)
	}

	if gpus <= perNode {
		// Best-fit: the node with the fewest free GPUs that still fits.
		var best *Node
		for _, n := range c.nodes {
			if n.free >= gpus && (best == nil || n.free < best.free) {
				best = n
			}
		}
		if best == nil {
			return nil, ErrInsufficient{Cluster: c.name, Requested: gpus}
		}
		return c.grantLocked([]*Node{best}, gpus), nil
	}

	// Multi-node: whole free nodes only.
	needNodes := (gpus + perNode - 1) / perNode
	var free []*Node
	for _, n := range c.nodes {
		if n.free == n.GPUCount {
			free = append(free, n)
			if len(free) == needNodes {
				break
			}
		}
	}
	if len(free) < needNodes {
		return nil, ErrInsufficient{Cluster: c.name, Requested: gpus}
	}
	return c.grantLocked(free, gpus), nil
}

func (c *Cluster) grantLocked(nodes []*Node, gpus int) *Allocation {
	c.nextID++
	alloc := &Allocation{ID: c.nextID, gpus: gpus}
	remaining := gpus
	for _, n := range nodes {
		take := remaining
		if take > n.free {
			take = n.free
		}
		part := AllocationPart{NodeID: n.ID}
		for i := 0; i < n.GPUCount && take > 0; i++ {
			if !n.used[i] {
				n.used[i] = true
				n.free--
				part.GPUs = append(part.GPUs, i)
				take--
				remaining--
			}
		}
		alloc.Parts = append(alloc.Parts, part)
		if remaining == 0 {
			break
		}
	}
	c.free.Add(-int64(gpus - remaining))
	c.granted[alloc.ID] = alloc
	return alloc
}

// Release returns an allocation's GPUs to the pool. Releasing twice is a
// no-op.
func (c *Cluster) Release(a *Allocation) {
	if a == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.granted[a.ID]; !ok {
		return
	}
	delete(c.granted, a.ID)
	freed := 0
	for _, part := range a.Parts {
		n := c.nodes[part.NodeID]
		for _, g := range part.GPUs {
			if n.used[g] {
				n.used[g] = false
				n.free++
				freed++
			}
		}
	}
	c.free.Add(int64(freed))
}

// Status is the publicly-queryable facility state the federation layer uses
// (§4.5: "queries the publicly available status of each cluster").
type Status struct {
	Name       string `json:"name"`
	TotalNodes int    `json:"total_nodes"`
	FreeNodes  int    `json:"free_nodes"`
	TotalGPUs  int    `json:"total_gpus"`
	FreeGPUs   int    `json:"free_gpus"`
}

// Status snapshots the cluster inventory.
func (c *Cluster) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Name: c.name, TotalNodes: len(c.nodes)}
	for _, n := range c.nodes {
		st.TotalGPUs += n.GPUCount
		st.FreeGPUs += n.free
		if n.free == n.GPUCount {
			st.FreeNodes++
		}
	}
	return st
}

// FreeGPUs returns the cluster's free GPU count without taking the lock —
// the same figure as Status().FreeGPUs, for callers that need nothing else.
func (c *Cluster) FreeGPUs() int { return int(c.free.Load()) }

// CheckInvariants verifies GPU accounting; property tests call it.
func (c *Cluster) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	counted := make(map[int]int)
	//firstlint:allow det commutative GPU accounting: a duplicate or count mismatch fails regardless of visit order
	for _, a := range c.granted {
		for _, p := range a.Parts {
			seen := make(map[int]bool)
			for _, g := range p.GPUs {
				if seen[g] {
					return fmt.Errorf("cluster %s: allocation %d lists GPU %d/%d twice", c.name, a.ID, p.NodeID, g)
				}
				seen[g] = true
				counted[p.NodeID]++
			}
		}
	}
	free := 0
	for _, n := range c.nodes {
		used := n.GPUCount - n.free
		if counted[n.ID] != used {
			return fmt.Errorf("cluster %s: node %d usage drift: granted=%d marked=%d",
				c.name, n.ID, counted[n.ID], used)
		}
		free += n.free
	}
	if got := c.FreeGPUs(); got != free {
		return fmt.Errorf("cluster %s: free-GPU counter drift: counter=%d nodes=%d", c.name, got, free)
	}
	return nil
}

// ErrInsufficient reports that the cluster cannot satisfy a request now.
type ErrInsufficient struct {
	Cluster   string
	Requested int
}

func (e ErrInsufficient) Error() string {
	return fmt.Sprintf("cluster %s: insufficient free GPUs for request of %d", e.Cluster, e.Requested)
}
