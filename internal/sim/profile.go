// Package sim models the execution environment of the paper's experiments:
// the three machine clusters (Galaxy-8, Galaxy-27, Docker-32), the seven
// vertex-centric system variants, and a calibrated cost model that converts
// per-round statistics measured from a real engine run into simulated
// wall-clock seconds, memory footprints, disk utilization, network overuse
// and cloud monetary cost.
//
// The engines in this repository execute the benchmark tasks for real on
// scaled-down dataset replicas; sim extrapolates the measured message and
// state counts back to paper scale (see Extrapolation) and charges them
// against paper-scale machine capacities (16 GB RAM, GbE network, HDD/SSD
// disks). All the phenomena the paper reports — memory-bound thrashing and
// overload at low batch counts, disk saturation in out-of-core systems,
// barrier overhead at high batch counts — emerge from this accounting.
package sim

import "fmt"

// SystemProfile captures the implementation properties of one VC-system
// variant that the paper identifies as performance-relevant (§2.2, §4):
// programming language memory/CPU overheads, message combining, the
// mirroring mechanism, out-of-core execution, and the synchronization mode.
type SystemProfile struct {
	Name string

	// WireBytesPerMsg is the serialized size of one logical message.
	WireBytesPerMsg int64
	// MemBytesPerMsg is the in-memory footprint of one buffered message
	// (object headers and pointers make this much larger on the JVM).
	MemBytesPerMsg int64
	// GraphMemFactor multiplies the raw CSR bytes to account for the
	// system's in-memory graph representation (JVM object overhead for
	// Giraph; near-1 for the C++ systems).
	GraphMemFactor float64
	// CPUNsPerMsg is the per-message compute cost charged per core.
	CPUNsPerMsg float64
	// CPUNsPerVertex is the per-active-vertex compute cost per round.
	CPUNsPerVertex float64

	// Combines reports whether the system merges same-key messages in its
	// local buffers (GraphLab does for random walks, §4.8); when true,
	// physical message counts drive compute and memory cost, otherwise
	// logical (per-walk) counts do.
	Combines bool
	// WireCombines reports whether combining extends to cross-machine
	// traffic. GraphLab's sync engine combines per superstep before
	// transmission; the async engine sends eagerly, so its wire volume is
	// uncombined — the reason Table 4 shows async shipping several times
	// more bytes.
	WireCombines bool
	// Mirror enables Pregel+'s mirroring: high-degree vertices broadcast
	// one message per mirror machine instead of one per neighbor (§2.2).
	Mirror bool
	// MirrorDegreeThreshold is the minimum degree for a vertex to be
	// mirrored.
	MirrorDegreeThreshold int
	// OutOfCore enables GraphD-style spilling of message buffers that
	// exceed the memory budget to disk (§2.2, §4.4).
	OutOfCore bool
	// MemoryBudgetBytes is the out-of-core in-memory message budget per
	// machine at paper scale (GraphD keeps vertex state in RAM and streams
	// messages beyond this budget to disk).
	MemoryBudgetBytes int64
	// StreamFraction is the share of message traffic an out-of-core system
	// streams through disk even when buffers fit the budget (GraphD's
	// distributed semi-streaming design keeps disks ~25% utilized at every
	// batch count, Table 3).
	StreamFraction float64

	// Async selects the synchronization mode.
	Async AsyncMode
	// LockNsPerActivation models GraphLab(async)'s distributed locking
	// overhead per vertex activation; the effective cost grows with the
	// machine count (§4.8).
	LockNsPerActivation float64
}

// AsyncMode enumerates the synchronization modes in Table 1 (right).
type AsyncMode int

const (
	// Sync is classic BSP with a barrier per superstep.
	Sync AsyncMode = iota
	// PartialAsync decouples message receiving from processing but keeps
	// the superstep barrier (Giraph's async mode).
	PartialAsync
	// FullAsync removes the barrier entirely (GraphLab's async engine).
	FullAsync
)

func (m AsyncMode) String() string {
	switch m {
	case Sync:
		return "sync"
	case PartialAsync:
		return "partial-async"
	case FullAsync:
		return "async"
	default:
		return fmt.Sprintf("AsyncMode(%d)", int(m))
	}
}

// The seven system variants evaluated in the paper. CPU and byte constants
// are anchored to the paper's published measurements; see
// DESIGN.md §4 and costmodel.go for the calibration anchors.
var (
	// PregelPlus: C++/MPI, synchronous, in-memory, no mirroring.
	PregelPlus = SystemProfile{
		Name:            "Pregel+",
		WireBytesPerMsg: 16, MemBytesPerMsg: 16, GraphMemFactor: 1.0,
		CPUNsPerMsg: 1400, CPUNsPerVertex: 120,
	}
	// PregelPlusMirror: Pregel+ with mirroring of high-degree vertices.
	PregelPlusMirror = SystemProfile{
		Name:            "Pregel+(mirror)",
		WireBytesPerMsg: 16, MemBytesPerMsg: 28, GraphMemFactor: 1.1,
		CPUNsPerMsg: 1400, CPUNsPerVertex: 120,
		Mirror: true, MirrorDegreeThreshold: 8,
	}
	// Giraph: Java/Hadoop; higher per-message CPU and memory overheads.
	Giraph = SystemProfile{
		Name:            "Giraph",
		WireBytesPerMsg: 24, MemBytesPerMsg: 64, GraphMemFactor: 3.0,
		CPUNsPerMsg: 4200, CPUNsPerVertex: 400,
	}
	// GiraphAsync: Giraph with decoupled receive/process threads; barrier
	// retained (partial asynchrony).
	GiraphAsync = SystemProfile{
		Name:            "Giraph(async)",
		WireBytesPerMsg: 24, MemBytesPerMsg: 64, GraphMemFactor: 3.0,
		CPUNsPerMsg: 3800, CPUNsPerVertex: 400,
		Async: PartialAsync,
	}
	// GraphD: C++, out-of-core; messages beyond the budget stream to disk.
	GraphD = SystemProfile{
		Name:            "GraphD",
		WireBytesPerMsg: 16, MemBytesPerMsg: 16, GraphMemFactor: 1.0,
		CPUNsPerMsg: 1400, CPUNsPerVertex: 120,
		OutOfCore: true, MemoryBudgetBytes: 256 << 20, StreamFraction: 0.1,
	}
	// GraphLab: GAS model, synchronous engine, combines same-key messages.
	GraphLab = SystemProfile{
		Name:            "GraphLab",
		WireBytesPerMsg: 16, MemBytesPerMsg: 24, GraphMemFactor: 1.3,
		CPUNsPerMsg: 1100, CPUNsPerVertex: 150,
		Combines: true, WireCombines: true,
	}
	// GraphLabAsync: GAS model, asynchronous engine; no barrier, no
	// combining, distributed locking per activation.
	GraphLabAsync = SystemProfile{
		Name:            "GraphLab(async)",
		WireBytesPerMsg: 16, MemBytesPerMsg: 24, GraphMemFactor: 1.3,
		CPUNsPerMsg: 1100, CPUNsPerVertex: 150,
		Combines: true,
		Async:    FullAsync, LockNsPerActivation: 650,
	}
)

// Systems lists all seven profiles in the paper's order.
func Systems() []SystemProfile {
	return []SystemProfile{
		Giraph, GiraphAsync, PregelPlus, PregelPlusMirror,
		GraphD, GraphLab, GraphLabAsync,
	}
}

// SystemByName returns the profile with the given name.
func SystemByName(name string) (SystemProfile, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return SystemProfile{}, fmt.Errorf("sim: unknown system %q", name)
}

// ClusterProfile describes one of the paper's three clusters (Table 1).
type ClusterProfile struct {
	Name     string
	Machines int
	// MemBytes is physical RAM per machine.
	MemBytes int64
	// UsableFrac is the fraction of physical memory available to the job;
	// the paper measures usable capacity ≈ 14 GB of 16 GB (§4.3).
	UsableFrac float64
	Cores      int
	// NetBytesPerSec is per-machine network bandwidth.
	NetBytesPerSec float64
	// DiskBytesPerSec is per-machine disk streaming bandwidth: 150 MB/s
	// for the Galaxy clusters' HDDs, 450 MB/s for Docker-32's SSDs.
	DiskBytesPerSec float64
	// Cloud marks billed clusters; CreditsPerMachineHour prices them.
	Cloud                 bool
	CreditsPerMachineHour float64
}

// The three clusters of Table 1.
var (
	Galaxy8 = ClusterProfile{
		Name: "Galaxy-8", Machines: 8, MemBytes: 16 << 30, UsableFrac: 14.0 / 16.0,
		Cores: 8, NetBytesPerSec: 117e6, DiskBytesPerSec: 150e6,
	}
	Galaxy27 = ClusterProfile{
		Name: "Galaxy-27", Machines: 27, MemBytes: 16 << 30, UsableFrac: 14.0 / 16.0,
		Cores: 8, NetBytesPerSec: 117e6, DiskBytesPerSec: 150e6,
	}
	Docker32 = ClusterProfile{
		Name: "Docker-32", Machines: 32, MemBytes: 16 << 30, UsableFrac: 14.0 / 16.0,
		Cores: 15, NetBytesPerSec: 117e6, DiskBytesPerSec: 450e6,
		Cloud: true, CreditsPerMachineHour: 5,
	}
)

// Clusters lists the three cluster profiles.
func Clusters() []ClusterProfile {
	return []ClusterProfile{Galaxy8, Galaxy27, Docker32}
}

// ClusterByName returns the cluster profile with the given name.
func ClusterByName(name string) (ClusterProfile, error) {
	for _, c := range Clusters() {
		if c.Name == name {
			return c, nil
		}
	}
	return ClusterProfile{}, fmt.Errorf("sim: unknown cluster %q", name)
}

// WithMachines returns a copy of the profile restricted to k machines, as
// the paper does when varying cluster size within one testbed (Fig. 3(c),
// Fig. 5(c), Table 2, Table 4, Fig. 12).
func (c ClusterProfile) WithMachines(k int) ClusterProfile {
	if k <= 0 {
		panic("sim: cluster needs at least one machine")
	}
	c2 := c
	c2.Machines = k
	c2.Name = fmt.Sprintf("%s[%d]", c.Name, k)
	return c2
}

// UsableMemBytes returns the per-machine memory available to the job.
func (c ClusterProfile) UsableMemBytes() float64 {
	return float64(c.MemBytes) * c.UsableFrac
}
