// Weighted networks: traffic flows along minimum-latency routes, not
// minimum-hop ones. This example builds a grid "road network" with one
// express corridor of low-latency links and shows that the top-K group
// betweenness chokepoints under weighted routing concentrate on the
// corridor, while hop-count routing spreads them over the grid center.
//
// Weighted support is this library's extension beyond the paper (which is
// unweighted); sampling switches to a bidirectional Dijkstra automatically.
package main

import (
	"context"
	"fmt"
	"log"

	"gbc"
)

const (
	rows = 12
	cols = 12
	k    = 6
)

func id(r, c int) int32 { return int32(r*cols + c) }

// buildGrid returns the road grid; express rows get latency 1 links along
// row rows/2, every other link costs 5.
func buildGrid(weightedCorridor bool) *gbc.Graph {
	b := gbc.NewBuilder(rows*cols, false)
	latency := func(r1, c1, r2, c2 int) float64 {
		if weightedCorridor && r1 == rows/2 && r2 == rows/2 {
			return 1 // the express corridor
		}
		return 5
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddWeightedEdge(id(r, c), id(r, c+1), latency(r, c, r, c+1))
			}
			if r+1 < rows {
				b.AddWeightedEdge(id(r, c), id(r+1, c), latency(r, c, r+1, c))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func main() {
	flat := buildGrid(false)   // uniform latency: same as hop counting
	express := buildGrid(true) // corridor row is 5x faster

	optFlat, err := gbc.Solve(context.Background(), flat, gbc.Options{K: k, Epsilon: 0.2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	optExpr, err := gbc.Solve(context.Background(), express, gbc.Options{K: k, Epsilon: 0.2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	onCorridor := func(group []int32) int {
		n := 0
		for _, v := range group {
			if int(v)/cols == rows/2 {
				n++
			}
		}
		return n
	}

	fmt.Printf("road grid %dx%d, monitor budget K = %d\n\n", rows, cols, k)
	fmt.Printf("uniform latency:  group %v\n", optFlat.Group)
	fmt.Printf("  %d of %d monitors on the middle row, covers %.1f%% of traffic\n",
		onCorridor(optFlat.Group), k, 100*gbc.ExactNormalizedGBC(flat, optFlat.Group))
	fmt.Printf("express corridor: group %v\n", optExpr.Group)
	fmt.Printf("  %d of %d monitors on the corridor, covers %.1f%% of traffic\n",
		onCorridor(optExpr.Group), k, 100*gbc.ExactNormalizedGBC(express, optExpr.Group))

	if onCorridor(optExpr.Group) > onCorridor(optFlat.Group) {
		fmt.Println("\nweighted routing pulls the chokepoints onto the fast corridor,")
		fmt.Println("which hop-count analysis would miss")
	}
}
