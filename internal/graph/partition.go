package graph

// Partition maps vertices to machines. The paper's systems use random hash
// partitioning by default (§4, "Pregel+ uses random hash on vertices to
// partition the graphs"); we reproduce that, plus a contiguous-range
// partitioner for tests.
type Partition struct {
	machines int
	owner    func(VertexID) int
	counts   []int
}

// NumMachines returns the number of machines in the partition.
func (p *Partition) NumMachines() int { return p.machines }

// Owner returns the machine owning vertex v.
func (p *Partition) Owner(v VertexID) int { return p.owner(v) }

// Count returns the number of vertices assigned to machine m.
func (p *Partition) Count(m int) int { return p.counts[m] }

// HashPartition spreads n vertices over k machines with a multiplicative
// hash (deterministic, well-mixed even for consecutive IDs).
func HashPartition(n, k int) *Partition {
	if k <= 0 {
		panic("graph: partition needs at least one machine")
	}
	owner := func(v VertexID) int {
		h := uint64(v) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		return int(h % uint64(k))
	}
	p := &Partition{machines: k, owner: owner, counts: make([]int, k)}
	for v := 0; v < n; v++ {
		p.counts[owner(VertexID(v))]++
	}
	return p
}

// RangePartition assigns contiguous vertex ranges to machines; mainly for
// tests where the owner of a vertex must be predictable.
func RangePartition(n, k int) *Partition {
	if k <= 0 {
		panic("graph: partition needs at least one machine")
	}
	per := (n + k - 1) / k
	if per == 0 {
		per = 1
	}
	owner := func(v VertexID) int {
		m := int(v) / per
		if m >= k {
			m = k - 1
		}
		return m
	}
	p := &Partition{machines: k, owner: owner, counts: make([]int, k)}
	for v := 0; v < n; v++ {
		p.counts[owner(VertexID(v))]++
	}
	return p
}
