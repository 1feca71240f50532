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
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"vcmt/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphgen: ")
	var (
		list     = flag.Bool("list", false, "list the Table 1 dataset replicas")
		dataset  = flag.String("dataset", "", "generate a named dataset replica")
		chunglu  = flag.String("chunglu", "", "generate a Chung-Lu graph: n,edges,gamma")
		seed     = flag.Uint64("seed", 1, "generator seed (custom graphs)")
		stats    = flag.Bool("stats", false, "print graph statistics")
		out      = flag.String("out", "", "output file")
		edgelist = flag.Bool("edgelist", false, "write a text edge list instead of binary")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-12s %12s %14s %10s %12s %12s\n",
			"name", "paper-nodes", "paper-arcs", "scale", "repl-nodes", "repl-arcs")
		for _, name := range graph.DatasetNames() {
			d, err := graph.Dataset(name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s %12d %14d %9.0fx %12d %12d\n",
				d.Name, d.PaperNodes, d.PaperEdges, d.ScaleNodes(), d.Nodes, d.Edges)
		}
		return
	}

	var g *graph.Graph
	switch {
	case *dataset != "":
		d, err := graph.Dataset(*dataset)
		if err != nil {
			log.Fatal(err)
		}
		g = d.Load()
	case *chunglu != "":
		parts := strings.Split(*chunglu, ",")
		if len(parts) != 3 {
			log.Fatal("-chunglu needs n,edges,gamma")
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil {
			log.Fatal(err)
		}
		m, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			log.Fatal(err)
		}
		gamma, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			log.Fatal(err)
		}
		g = graph.GenerateChungLu(n, m, gamma, *seed)
	default:
		log.Fatal("need -list, -dataset or -chunglu (see -h)")
	}

	if *stats || *out == "" {
		degrees, counts := graph.DegreeHistogram(g)
		maxDeg := 0
		if len(degrees) > 0 {
			maxDeg = degrees[len(degrees)-1]
		}
		fmt.Printf("vertices:   %d\n", g.NumVertices())
		fmt.Printf("arcs:       %d\n", g.NumEdges())
		fmt.Printf("avg degree: %.2f\n", g.AvgDegree())
		fmt.Printf("max degree: %d\n", maxDeg)
		fmt.Printf("memory:     %.1f MB (CSR)\n", float64(g.MemoryBytes())/(1<<20))
		_ = counts
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if *edgelist {
			err = graph.WriteEdgeList(f, g)
		} else {
			err = graph.WriteBinary(f, g)
		}
		if err != nil {
			log.Fatal(err)
		}
		info, _ := f.Stat()
		fmt.Printf("wrote %s (%.1f MB)\n", *out, float64(info.Size())/(1<<20))
	}
}
