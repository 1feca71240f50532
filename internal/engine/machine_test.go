package engine

import (
	"fmt"
	"strings"
	"testing"

	"vcmt/internal/graph"
)

// machineCluster is k machine engines wired by an in-process loop: the
// rpcrt cluster with the network taken out.
type machineCluster struct {
	k    int
	engs []*Engine[hopMsg]
	// dropAt, when positive, loses one landed message at that barrier.
	dropAt int
}

func newMachineCluster(g *graph.Graph, part *graph.Partition, prog Program[hopMsg], opts Options[hopMsg]) *machineCluster {
	c := &machineCluster{k: part.NumMachines()}
	for id := 0; id < c.k; id++ {
		c.engs = append(c.engs, NewMachine(g, part, id, prog, opts))
	}
	return c
}

// step runs one superstep on every machine, then moves every remote row to
// its destination, landing senders in machine order. It reports whether a
// message is in flight.
func (c *machineCluster) step() (bool, error) {
	for _, e := range c.engs {
		if err := e.Step(); err != nil {
			return false, err
		}
	}
	inFlight := false
	for d, dst := range c.engs {
		for s, src := range c.engs {
			if s != d {
				src.Drain(d, func(v graph.VertexID, m hopMsg) { dst.Land(s, v, m) })
			}
			if n := dst.Buffered(s, d); n > 0 {
				inFlight = true
				if s != d && dst.rounds == c.dropAt {
					dst.outRows[s*c.k+d].n-- // the row loses one message it was credited
					c.dropAt = 0
				}
			}
		}
	}
	return inFlight, nil
}

// run drives the machines to the engine's halting rule and returns the
// rounds every machine ran.
func (c *machineCluster) run() (int, error) {
	for {
		more, err := c.step()
		if err != nil || !more {
			return c.engs[0].Rounds(), err
		}
	}
}

// TestMachineEnginesMatchFullEngine is the machine seam's contract: k machine
// engines, each executing one machine and exchanging remote rows through
// Drain and Land, reproduce one k-machine engine exactly — every machine's
// Compute calls see the same inboxes in the same order and draw the same
// RNG values (traceProg digests both), over the same rounds — and a landed
// message that goes missing trips the barrier conservation check.
func TestMachineEnginesMatchFullEngine(t *testing.T) {
	g := graph.GenerateChungLu(400, 1600, 2.5, 9)
	for _, k := range []int{1, 2, 3, 8} {
		part := graph.HashPartition(g.NumVertices(), k)
		opts := Options[hopMsg]{Seed: uint64(40 + k)}
		full := &traceProg{hops: 6}
		e := New(g, part, full, nil, opts)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		split := &traceProg{hops: 6}
		rounds, err := newMachineCluster(g, part, split, opts).run()
		if err != nil {
			t.Fatal(err)
		}
		if rounds != e.Rounds() || split.digest != full.digest {
			t.Fatalf("k=%d: machine engines ran %d rounds with digests %x, the full engine %d with %x",
				k, rounds, split.digest, e.Rounds(), full.digest)
		}
		if rounds < 4 {
			t.Fatalf("k=%d: only %d rounds, the test needs a multi-round job", k, rounds)
		}
	}

	part := graph.HashPartition(g.NumVertices(), 3)
	c := newMachineCluster(g, part, &traceProg{hops: 6}, Options[hopMsg]{Seed: 1})
	c.dropAt = 2
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "conservation violated") {
			t.Fatalf("a lost landed message: got %v, want the conservation panic", r)
		}
	}()
	c.run()
}
