package main

import (
	"math/rand/v2"
	"time"

	"gpuport/internal/server"
)

// Campaign kinds of the serve-mix workload.
const (
	// kindFresh is a small campaign under a new seed: 1-2 chips x 1-3
	// apps x 1 standard input x all 96 configurations.
	kindFresh = "fresh"
	// kindResubmit re-sends an earlier campaign's exact spec, which the
	// daemon answers through its dedupe or terminal-job path.
	kindResubmit = "resubmit"
	// kindFullRow is one chip under a new seed across every app and
	// standard input: 17 x 3 x 96 = 4,896 cells.
	kindFullRow = "full-row"
)

// mixDeck is one block of the mix: 70% fresh, 20% resubmits and 10%
// full-row campaigns, shuffled within each block so every stretch of
// the run carries the same share of each kind.
var mixDeck = []string{
	kindFresh, kindFresh, kindFresh, kindFresh, kindFresh, kindFresh, kindFresh,
	kindResubmit, kindResubmit,
	kindFullRow,
}

// campaign is one scheduled request of the open loop.
type campaign struct {
	kind string
	spec server.Spec
	// due is the send time, relative to the start of the window.
	due time.Duration
}

// genMix deals n campaigns, one every interval, from the seeded deck.
// chips, apps and inputs are the names a fresh campaign draws from. The
// same arguments always give the same campaigns.
func genMix(seed uint64, n int, interval time.Duration, chips, apps, inputs []string) []campaign {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]campaign, 0, n)
	var deck []string
	for i := 0; i < n; i++ {
		if len(deck) == 0 {
			deck = append(deck, mixDeck...)
			r.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		kind := deck[0]
		deck = deck[1:]
		c := campaign{kind: kind, due: time.Duration(i) * interval}
		switch kind {
		case kindResubmit:
			if len(out) > 0 {
				prev := out[r.IntN(len(out))]
				// A resubmit of a resubmit is a resubmit of its origin.
				c.spec = prev.spec
				break
			}
			// Nothing to resubmit yet: send a fresh campaign instead.
			c.kind = kindFresh
			c.spec = freshSpec(r, chips, apps, inputs)
		case kindFullRow:
			c.spec = server.Spec{Seed: newSeed(r), Chips: pick(r, chips, 1)}
		default:
			c.spec = freshSpec(r, chips, apps, inputs)
		}
		out = append(out, c)
	}
	return out
}

func freshSpec(r *rand.Rand, chips, apps, inputs []string) server.Spec {
	return server.Spec{
		Seed:   newSeed(r),
		Chips:  pick(r, chips, 1+r.IntN(2)),
		Apps:   pick(r, apps, 1+r.IntN(3)),
		Inputs: pick(r, inputs, 1),
	}
}

// newSeed draws a campaign seed that survives a round trip through a
// float64 JSON decoder.
func newSeed(r *rand.Rand) uint64 { return r.Uint64N(1 << 53) }

// pick draws k distinct names in random order.
func pick(r *rand.Rand, names []string, k int) []string {
	idx := r.Perm(len(names))[:k]
	out := make([]string, k)
	for i, j := range idx {
		out[i] = names[j]
	}
	return out
}
