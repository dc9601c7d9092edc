// Package fixture is the fixture module's root package. Like the
// repository's facade, its exported functions and the exported methods
// of the types it aliases are public API, so every fixture function it
// names is reached for the deadcode analyzer, and the other analyzers'
// planted bugs sit in code some program uses.
package fixture

import (
	"fixture/internal/cost"
	"fixture/internal/dead"
	"fixture/internal/det"
	"fixture/internal/errs"
	"fixture/internal/leak"
	"fixture/internal/lockg"
	"fixture/internal/lockord"
	"fixture/internal/maprange"
	"fixture/internal/measure"
	"fixture/internal/mu"
	"fixture/internal/obs"
	"fixture/internal/obsemit"
	"fixture/internal/rnd"
	"fixture/internal/skips"
	"fixture/internal/stats"
	"fixture/internal/wall"
)

type (
	Box      = lockg.Box
	Counter  = mu.Counter
	Naked    = lockg.Naked
	RNG      = stats.RNG
	RW       = lockg.RW
	Recorder = obs.Recorder
	// Widget makes dead.Widget's exported methods public API.
	Widget = dead.Widget
)

// Reach names every fixture function outside internal/dead that
// nothing else reaches.
func Reach() []any {
	return []any{
		cost.Equal, cost.ZeroGuard, cost.Near, cost.Ints,
		det.Good, det.Bad, det.BadOrder, det.BadFieldOrder,
		errs.Drop, errs.Explicit, errs.Suppressed, errs.Bare, errs.Sinks,
		leak.Forever, leak.WithCtx, leak.WithWG, leak.Drain, leak.SpawnNamed,
		lockg.Global, lockg.Scratch, lockg.Pair, lockg.Anon, lockg.Tables,
		lockord.TakeAB, lockord.TakeBA, lockord.TakeAC, lockord.TakeBC,
		maprange.Keys, maprange.Unsorted, maprange.Encode, maprange.Invert,
		maprange.Total, maprange.Render, maprange.LastWins, maprange.First,
		maprange.Push, maprange.SetFlag, maprange.SetOuter, maprange.Derived,
		maprange.Sum, maprange.Each,
		measure.Mint, measure.Spawn, measure.SpawnCtx,
		mu.Clone,
		obs.String,
		obsemit.Emit, obsemit.Describe,
		rnd.Pick,
		skips.F,
		stats.New,
		wall.Stamp,
	}
}
