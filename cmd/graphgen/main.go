// Command graphgen generates or inspects the synthetic dataset replicas.
//
// Usage:
//
//	graphgen -list
//	graphgen -dataset DBLP -stats
//	graphgen -dataset DBLP -out dblp.bin          # binary format
//	graphgen -dataset DBLP -out dblp.txt -edgelist
//	graphgen -chunglu 10000,50000,2.5 -seed 7 -out g.bin
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vcmt/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list the Table 1 dataset replicas")
		dataset  = fs.String("dataset", "", "generate a named dataset replica")
		chunglu  = fs.String("chunglu", "", "generate a Chung-Lu graph: n,edges,gamma")
		seed     = fs.Uint64("seed", 1, "generator seed (custom graphs)")
		stats    = fs.Bool("stats", false, "print graph statistics")
		out      = fs.String("out", "", "output file")
		edgelist = fs.Bool("edgelist", false, "write a text edge list instead of binary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(w, "%-12s %12s %14s %10s %12s %12s\n",
			"name", "paper-nodes", "paper-arcs", "scale", "repl-nodes", "repl-arcs")
		for _, name := range graph.DatasetNames() {
			d, err := graph.Dataset(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %12d %14d %9.0fx %12d %12d\n",
				d.Name, d.PaperNodes, d.PaperEdges, d.ScaleNodes(), d.Nodes, d.Edges)
		}
		return nil
	}

	var g *graph.Graph
	switch {
	case *dataset != "":
		d, err := graph.Dataset(*dataset)
		if err != nil {
			return err
		}
		g = d.Load()
	case *chunglu != "":
		var n int
		var m int64
		var gamma float64
		if _, err := fmt.Sscanf(*chunglu+"\n", "%d,%d,%g\n", &n, &m, &gamma); err != nil {
			return fmt.Errorf("-chunglu needs n,edges,gamma: %w", err)
		}
		g = graph.GenerateChungLu(n, m, gamma, *seed)
	default:
		return errors.New("need -list, -dataset or -chunglu (see -h)")
	}

	if *stats || *out == "" {
		fmt.Fprintf(w, "vertices:   %d\n", g.NumVertices())
		fmt.Fprintf(w, "arcs:       %d\n", g.NumEdges())
		fmt.Fprintf(w, "avg degree: %.2f\n", g.AvgDegree())
		fmt.Fprintf(w, "max degree: %d\n", g.MaxDegree())
		fmt.Fprintf(w, "memory:     %.1f MB (CSR)\n", float64(g.MemoryBytes())/(1<<20))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if *edgelist {
			err = graph.WriteEdgeList(f, g)
		} else {
			err = graph.WriteBinary(f, g)
		}
		var info os.FileInfo
		if err == nil {
			info, err = f.Stat()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		fmt.Fprintf(w, "wrote %s (%.1f MB)\n", *out, float64(info.Size())/(1<<20))
	}
	return nil
}
