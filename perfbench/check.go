package main

import (
	"fmt"

	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

// checkMembership requires a label for each of the n vertices, every label
// inside the vertex id space.
func checkMembership(m []graph.V, n int) error {
	if len(m) != n {
		return fmt.Errorf("membership covers %d of %d vertices", len(m), n)
	}
	for v, c := range m {
		if int(c) >= n {
			return fmt.Errorf("vertex %d has label %d outside [0, %d)", v, c, n)
		}
	}
	return nil
}

// checkQ recomputes modularity on the built graph and compares it with the
// engine's reported value.
func checkQ(g *graph.Graph, m []graph.V, q float64) error {
	qr := metrics.Modularity(g, m)
	if d := qr - q; d > 1e-9 || d < -1e-9 {
		return fmt.Errorf("reported Q %.12f, recomputed %.12f", q, qr)
	}
	return nil
}

// nmi scores a partition against a reference one.
func nmi(got, want []graph.V) (float64, error) {
	c, err := metrics.NewContingency(got, want)
	if err != nil {
		return 0, err
	}
	return c.NMI(), nil
}
