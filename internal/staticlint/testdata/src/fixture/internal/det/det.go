// Package det hosts the determinism-proof fixture roots: two clean
// roots, one that reaches the wall clock two hops down, and two whose
// map iteration order leaks into a float sum, one via a struct field.
package det

import "fixture/internal/wall"

// Good is a clean root: pure arithmetic through a helper.
func Good(n int) int { return double(n) + 1 }

func double(n int) int { return n * 2 }

// Bad reaches the wall clock two hops down the call graph.
func Bad(n int) int { return indirect(n) }

func indirect(n int) int { return wall.Stamp(n) }

// BadOrder folds map values into a float in iteration order; float
// addition does not associate, so the result is order-dependent.
func BadOrder(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

// checkSum is matched by the det.check* glob in the fixture proof set.
func checkSum(ns []int) int {
	total := 0
	for _, n := range ns {
		total += Good(n)
	}
	return total
}

type tally struct{ total float64 }

// BadFieldOrder folds map values into a float struct field: the field's
// type, not the struct variable's, makes it an order-dependent sum.
func BadFieldOrder(m map[string]float64) float64 {
	var t tally
	for _, v := range m {
		t.total += v
	}
	return t.total
}
