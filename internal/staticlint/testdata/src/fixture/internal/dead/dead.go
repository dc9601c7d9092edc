// Package dead exercises the deadcode analyzer: for each root rule, a
// clean twin only that rule reaches and a planted function it misses.
package dead

import "fmt"

var booted = 0

// init is a package initialiser, so the main/init rule reaches it.
func init() { booted = boot() }

// boot is reached only from init: clean twin.
func boot() int { return 1 }

// main outside package main is an ordinary function: planted.
func main() {}

type starter struct{}

// init on a type is a method, not a package initialiser: planted.
func (starter) init() {}

// handlers is a package-level initialiser.
var handlers = map[string]func() int{"table": fromTable}

// fromTable is named only by the initialiser above: clean twin.
func fromTable() int { return 2 }

// A blank declaration is not a use.
var _ = blankOnly

// blankOnly is named only by the blank declaration: planted.
func blankOnly() int { return 3 }

// Widget is aliased by the fixture root package.
type Widget struct{ n int }

// Sprockets is public API through the alias: clean twin.
func (w *Widget) Sprockets() int { return w.n }

// grow is unexported, so the alias does not make it API: planted.
func (w *Widget) grow() { w.n++ }

// Orphan is exported outside the root package, which makes it no
// program's API: planted. Its local interface still declares Label.
func Orphan() {
	type labeller interface{ Label() string }
}

// shape declares Area, so every method named Area is reached.
type shape interface{ Area() int }

type square struct{ side int }

// Area is called only through shape: clean twin.
func (s square) Area() int { return s.side * s.side }

// Label is called only through Orphan's local interface: clean twin.
func (s square) Label() string { return "square" }

// String is called only through fmt.Stringer, an imported interface:
// clean twin.
func (s square) String() string { return fmt.Sprint(s.side) }

// Diagonal's name no interface declares: planted.
func (s square) Diagonal() int { return 2 * s.side }

// provedSum is a determinism root of the fixture config: clean twin.
func provedSum(ns []int) int { return len(ns) }

// unproved matches no determinism-root pattern: planted.
func unproved() int { return 4 }

// seam is unused but kept on purpose, with a reason.
//
//lint:allow deadcode the fixture's one explained exception
func seam() {}
