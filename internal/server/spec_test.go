package server

import (
	"bytes"
	"net/http"
	"runtime"
	"testing"
)

// allInputs names every standard and extended input.
var allInputs = []string{"usa.ny", "soc-pokec", "rand-8k", "usa.bay", "soc-lj", "rand-16k"}

// TestResolveReusesSharedInputs keeps submits cheap: once the shared
// inputs exist, resolving and fingerprinting a spec that names all six
// allocates under 1 MiB per call. Regenerating even one input per call
// allocates tens of MiB. TotalAlloc is process-wide, which holds
// because the package's tests run sequentially.
func TestResolveReusesSharedInputs(t *testing.T) {
	spec := Spec{Seed: 1, Inputs: allInputs}
	resolve := func() {
		_, camp, errs := spec.Resolve()
		if errs != nil {
			t.Fatal(errs)
		}
		_ = camp.Fingerprint()
	}
	resolve() // builds the shared inputs
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		resolve()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1<<20 {
		t.Errorf("Resolve + Fingerprint of a six-input spec allocates %d bytes per call, want < 1 MiB", per)
	}
}

// FuzzSpecDecode feeds arbitrary submit bodies through the decoder
// handleSubmit uses, then Spec.Resolve. Resolve must not panic, every
// rejection must be a 400 bad_spec naming the spec field at fault, and
// an accepted spec's canonical echo, marshalled and resolved again,
// must denote the same campaign. Runs bounded in CI (make fuzz).
func FuzzSpecDecode(f *testing.F) {
	for _, body := range []string{
		testSpecJSON,
		`{}`,
		`{"seed":3,"inputs":["usa.ny","soc-pokec","rand-8k","usa.bay","soc-lj","rand-16k"]}`,
		`{"seed":18446744073709551615,"runs":64,"validate":true,"priority":-2}`,
		`{"chips":[],"apps":null,"configs":["coop,sz256","sg"],"faults":"light"}`,
		`{"runs":-1}`,
		`{"chips":["nope"]}`,
		`{"apps":["bfs-wl","bfs-wl"]}`,
		`{"inputs":["rand-8k","rand-8k"]}`,
		`{"configs":[]}`,
		`{"configs":["sg","sg"]}`,
		`{"faults":"transient=2"}`,
		`{"seed":1,"bogus":true}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, errs := decodeSpec(bytes.NewReader(body))
		if errs != nil {
			return // bad_json: rejected before Resolve
		}
		echo, camp, errs := spec.Resolve()
		if errs != nil {
			if errs.Status != http.StatusBadRequest || errs.Code != "bad_spec" || errs.Field == "" {
				t.Fatalf("rejection %+v is not a 400 bad_spec naming a field", errs)
			}
			return
		}
		wire := marshalCanonical(echo)
		again, errs := decodeSpec(bytes.NewReader(wire))
		if errs != nil {
			t.Fatalf("canonical echo %s does not decode: %v", wire, errs)
		}
		_, camp2, errs := again.Resolve()
		if errs != nil {
			t.Fatalf("canonical echo %s is rejected: %v", wire, errs)
		}
		if camp.Fingerprint() != camp2.Fingerprint() {
			t.Fatalf("canonical echo %s resolves to another campaign than %s", wire, body)
		}
	})
}
