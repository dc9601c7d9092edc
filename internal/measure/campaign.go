package measure

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Campaign is one portability study as a resumable job object: the
// semantic identity of a sweep (what is measured - chips, apps, inputs,
// config subspace - under which seed, sampling budget and fault policy)
// separated from the runtime bindings of one execution (context,
// workers, cache, recorder, checkpoint file). The identity is
// content-addressed by Fingerprint, so two campaigns with equal
// fingerprints produce bit-identical datasets and a finished result can
// be served from a cache without re-running anything. An execution
// sets its bindings on a copy from Options and runs it through
// CollectReport, so the same campaign can run, be cancelled, and resume
// later under a different context and worker budget while remaining
// the same job.
type Campaign struct {
	o Options
}

// NewCampaign resolves the semantic grid of o (nil axes become the
// full study axes) and captures it as a job object. Runtime bindings
// present in o (context, cache, recorder, workers, checkpoint) are
// kept and returned by Options.
func NewCampaign(o Options) *Campaign {
	o.fillGrid()
	return &Campaign{o: o}
}

// Options returns a copy of the campaign's resolved options.
func (c *Campaign) Options() Options { return c.o }

// Cells returns the intended sweep size of the campaign.
func (c *Campaign) Cells() int {
	return len(c.o.Chips) * len(c.o.Apps) * len(c.o.Inputs) * len(c.o.Configs)
}

// campaignFPVersion versions the fingerprint preimage. Bump it when
// the identity schema changes; every persisted result keyed by an old
// fingerprint then misses, which is the safe failure mode.
const campaignFPVersion = "gpuport-campaign-v1"

// Fingerprint content-addresses the campaign's semantic identity:
// seed, sampling budget, validation flag, chip set, application set
// (name and version token), input set (name and graph content
// fingerprint), configuration subspace, and the full fault profile.
// Runtime bindings (workers, cache, recorder, checkpoint path) do not
// participate: they are proven not to change the dataset. The digest
// is a hex sha256, stable across processes and machines.
func (c *Campaign) Fingerprint() string {
	h := sha256.New()
	field := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	field(campaignFPVersion)
	field(strconv.FormatUint(c.o.Seed, 10))
	field(strconv.Itoa(c.o.Runs))
	field(strconv.FormatBool(c.o.Validate))
	for _, ch := range c.o.Chips {
		field("chip=" + ch.Name)
	}
	for _, a := range c.o.Apps {
		field("app=" + a.Name + "@" + a.Version)
	}
	for _, in := range c.o.Inputs {
		field("input=" + in.Name + "#" + in.Fingerprint())
	}
	for _, cfg := range c.o.Configs {
		field("config=" + cfg.String())
	}
	field("faults=" + c.o.Faults.String())
	return hex.EncodeToString(h.Sum(nil))
}
