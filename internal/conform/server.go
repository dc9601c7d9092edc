package conform

import (
	"bytes"
	"context"
	"fmt"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/measure"
	"gpuport/internal/opt"
	"gpuport/internal/server"
	"gpuport/internal/stats"
)

// Pillar 4 (server/CLI differential): the sweep-as-a-service daemon
// must be a pure transport. For randomized campaign specs, a campaign
// submitted to an in-process server (priority queue, runner pool,
// shared recorder, checkpointless execution) must produce the exact
// dataset CSV bytes of the same campaign run directly through the
// measure job object - the CLI path. Cell-for-cell equality is implied
// by byte equality because the CSV row order is canonical sweep order.
//
// This pillar is deliberately not registered in Properties(): it
// exercises the full measurement pipeline (wall-clock stage spans and
// all), so it lives outside the determinism-proof roots that gate the
// property registry and runs from its own entry points (the conform
// test suite and `conform -server-diff`).

// serverDiffInputs is the input pool the differential samples from:
// the standard study inputs, smallest first so most trials stay cheap.
var serverDiffInputs = []string{"rand-8k", "soc-pokec", "usa.ny"}

// randomCampaignSpec draws one small campaign spec: 1-2 chips, one
// app, one input, 1-3 configs, 1-3 runs, fresh seed.
func randomCampaignSpec(r *stats.RNG) server.Spec {
	allChips := chip.All()
	allApps := apps.All()
	allCfgs := opt.All()

	spec := server.Spec{
		Seed: r.Uint64(),
		Runs: 1 + r.Intn(3),
	}
	for _, i := range r.Perm(len(allChips))[:1+r.Intn(2)] {
		spec.Chips = append(spec.Chips, allChips[i].Name)
	}
	spec.Apps = []string{allApps[r.Intn(len(allApps))].Name}
	spec.Inputs = []string{serverDiffInputs[r.Intn(len(serverDiffInputs))]}
	for _, i := range r.Perm(len(allCfgs))[:1+r.Intn(3)] {
		spec.Configs = append(spec.Configs, allCfgs[i].String())
	}
	return spec
}

// ServerCampaignDifferential runs the pillar: trials randomized specs,
// each executed through both paths and compared byte-for-byte. The
// first mismatch is reported with the offending spec and the first
// differing CSV line; a reported spec reproduces the mismatch
// deterministically.
func ServerCampaignDifferential(ctx context.Context, seed uint64, trials int) error {
	if trials <= 0 {
		trials = 20
	}
	r := stats.NewRNG(propSeed(seed, "server-campaign-differential"))
	for trial := 0; trial < trials; trial++ {
		spec := randomCampaignSpec(r)

		_, camp, serr := spec.Resolve()
		if serr != nil {
			return fmt.Errorf("server-diff trial %d: generated spec invalid: %w", trial, serr)
		}
		o := camp.Options()
		o.Ctx = ctx
		ds, err := measure.Collect(o)
		if err != nil {
			return fmt.Errorf("server-diff trial %d: CLI path: %w", trial, err)
		}
		var cli bytes.Buffer
		if err := ds.WriteCSV(&cli); err != nil {
			return fmt.Errorf("server-diff trial %d: %w", trial, err)
		}

		got, err := runViaServer(ctx, spec)
		if err != nil {
			return fmt.Errorf("server-diff trial %d: server path: %w", trial, err)
		}

		if !bytes.Equal(got, cli.Bytes()) {
			return fmt.Errorf("server-diff trial %d: server and CLI datasets differ for spec %+v: %s",
				trial, spec, firstCSVDiff(got, cli.Bytes()))
		}
	}
	return nil
}

// runViaServer executes the spec on a freshly booted in-process server
// and returns its result bytes.
func runViaServer(ctx context.Context, spec server.Spec) ([]byte, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	srv, err := server.New(server.Config{Ctx: sctx, Campaigns: 2})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	j, _, serr := srv.Submit(spec)
	if serr != nil {
		return nil, serr
	}
	if err := j.Wait(ctx); err != nil {
		return nil, err
	}
	body, rerr := j.Result()
	if rerr != nil {
		return nil, rerr
	}
	return body, nil
}

// firstCSVDiff locates the first line where two CSV renderings differ.
func firstCSVDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("first diff at line %d: server=%q cli=%q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: server=%d cli=%d", len(al), len(bl))
}
