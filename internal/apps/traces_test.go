package apps

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// pinKey names one pinned trace: an application at a version on a
// standard input.
type pinKey struct{ app, version, input string }

// pinnedTraces holds the sha256 of every standard pair's compact trace
// JSON (Trace.AppendJSONCompact), the trace cache's storage format.
var pinnedTraces = map[pinKey]string{
	{"bfs-wl", "1", "usa.ny"}:         "bd8bee20ec48c4ef7f42a0d07b682d8041b8f7141752ad70946fbb0414583828",
	{"bfs-topo", "1", "usa.ny"}:       "449704368ce27fb1e082278041104d2243133228ebe3096526236fb8f34968d4",
	{"bfs-hybrid", "1", "usa.ny"}:     "8f8b62188dd8d9f435486194360d1c430601a8841910018112ade0fd51953414",
	{"bfs-tp", "1", "usa.ny"}:         "ac8bc36654613ce45f8163fdf4e9b5e8718cf24c9cc6b2e44987cbfca4a40ac5",
	{"cc-sv", "1", "usa.ny"}:          "800c925091adbe9e58aba8b7b50b3899fa18782726430867eb108fd10decb580",
	{"cc-wl", "1", "usa.ny"}:          "f113836710d8f76a88fe5e7a452f4d50d2d7bc521a680be6c4f9027a449833e4",
	{"mis-wl", "1", "usa.ny"}:         "8d8aa4ab1a2374344265c88308f99be5f6dde74425ad7873efd81d466d392197",
	{"mis-topo", "1", "usa.ny"}:       "96a0c826d593ac1d41839c463df457f0200fd128c918fbf3e0bf355bcc19f1af",
	{"mst-boruvka", "1", "usa.ny"}:    "fdbb8a73162c7be296584a8963bd21889ae8e5fe3706004b3fa9b6b666443004",
	{"pr-topo", "1", "usa.ny"}:        "2fc8ea5d9e997b5441d4399cf1de0f1934c83435c4f80df025b8e3ca9c96a329",
	{"pr-residual", "1", "usa.ny"}:    "d0ef255ec72a57c0c9d7d6ed833395ccae43ae65d99991b9900b1dc3c694030f",
	{"sssp-wl", "1", "usa.ny"}:        "f4bd2435c4af8c0327f417622660a3171c9d17c496c1b2f023e3bb030b061981",
	{"sssp-topo", "1", "usa.ny"}:      "eabace15bbe31b59f9ba4eca601a030df7fe974c134104e88bd7f1ca7d6d0378",
	{"sssp-nf", "1", "usa.ny"}:        "2e5e151ad41873597eab5dc7d4f82ef80fb41472c8b2ef3391ef66fb10829f4d",
	{"tri-bs", "1", "usa.ny"}:         "2e0ec34da62f0211d657f368e02ef4fabb0670af5c4e8fda7162fcba574bad2a",
	{"tri-merge", "1", "usa.ny"}:      "6f69e3cb0cb39dcb5752128bcac0dbd183ec786f42a8d392f3a8b472bb8b841f",
	{"tri-hash", "1", "usa.ny"}:       "5ffeb29896549a7ff51c3a1efbc308681ba926ceb105b1ebda1d2e8934c938a8",
	{"bfs-wl", "1", "soc-pokec"}:      "e339a5298723b26833ab128244643595505379990a52c6df7315edb49dcaf9dd",
	{"bfs-topo", "1", "soc-pokec"}:    "de8766f819c02ff48cea5b63895421545b9b3cc0be8780ecbd2a444c5ace2889",
	{"bfs-hybrid", "1", "soc-pokec"}:  "ff10a533f6a5f75181572eb8a46034170639cacad1c86bfa2805262152ed154f",
	{"bfs-tp", "1", "soc-pokec"}:      "a8824673dbf482743722ba4bdea9a7fad21a4bdf774d0b2417a0d3a366de90d3",
	{"cc-sv", "1", "soc-pokec"}:       "2bd5070b5326995eaf588e5fac93ee08dafab799cb897a36f231770e6d3d3e7d",
	{"cc-wl", "1", "soc-pokec"}:       "4ab7ff12808aab36c9b10d718cf18f326089bbdf7ff024c842823915436df0cf",
	{"mis-wl", "1", "soc-pokec"}:      "19ca2284a1ad623a7ae8f3f191dac2fb24681a3b417ea2635bf5b5f846460d14",
	{"mis-topo", "1", "soc-pokec"}:    "09b26ffa1c678097b97ae6fa1d504b495006f4ff0d7577db1ac36ff1b69c4192",
	{"mst-boruvka", "1", "soc-pokec"}: "245aa67344c0af66afd8bd896d8b04694b0b345e1ea65625c59304cf9a50a098",
	{"pr-topo", "1", "soc-pokec"}:     "5e7f9b77f57b2197db92fbb23ddb9b5548c079f4bc93e647c878f9599956e64d",
	{"pr-residual", "1", "soc-pokec"}: "651f9ed23d728a5064e1683be9070d8fa340b7d02aa8d4aabb3a8c58d11a9cb5",
	{"sssp-wl", "1", "soc-pokec"}:     "02755615cdfc345995e4b0c2d025936c8a7e3c5a9d84c23f5b8e1bd17a3ea899",
	{"sssp-topo", "1", "soc-pokec"}:   "2600996ea19f432a7cd3c56db7e16f929f135a70c9d6a7b41f2c750604e8c54b",
	{"sssp-nf", "1", "soc-pokec"}:     "8debc8331c8da4360c37f8f518578b412678d6cf70119e70636723869494d4e6",
	{"tri-bs", "1", "soc-pokec"}:      "df8a943e35efee98eb199bc97ba2d9b6d84d3a7df5c20b7e49cda71247550824",
	{"tri-merge", "1", "soc-pokec"}:   "a6824abce79607c7db3d04c61f8d723337ec691a3a44f1b77c38957a20eb2224",
	{"tri-hash", "1", "soc-pokec"}:    "a94b9057e6afa8c24347309d291f9d06f4accdb4cb212a704723c97ebe38158c",
	{"bfs-wl", "1", "rand-8k"}:        "e07acf05d65b2b56af7b1e63b95fccae5bd726d43c644786d908d903996d06c5",
	{"bfs-topo", "1", "rand-8k"}:      "53884b786ee97e19c8e13d920c0c2b40fa35c031bb571a5cd9bf51e91fa22eb3",
	{"bfs-hybrid", "1", "rand-8k"}:    "37268be70ffddf28f936b6ef940ed71854e9de4ed6f9f5f8a5ffc622e08a0f17",
	{"bfs-tp", "1", "rand-8k"}:        "9992952113076d58b271c16d57494843ce9ac0a9d45d9d07253b8b3932dc7eb6",
	{"cc-sv", "1", "rand-8k"}:         "b83a115ce03981d86c025d415f8379dccaccc62c5b0b4c2905460ee3036973fb",
	{"cc-wl", "1", "rand-8k"}:         "6849cbc953826977c75a7e6924b88a65c52ce128038bab9ad913d2e52bce9b02",
	{"mis-wl", "1", "rand-8k"}:        "3748d188efe2651e1c04fd89f7416f8237ce04fb72ef954dd45ae6ac3154d3a6",
	{"mis-topo", "1", "rand-8k"}:      "4922776bfb45dbcd0a5481ffad1e09b6631facc9677dd55a1591d8aa7b7e03be",
	{"mst-boruvka", "1", "rand-8k"}:   "72b84d54fe5ab4dc63b55d6ee616ebec4d0c436b0a37f2999a49f6464ee13da4",
	{"pr-topo", "1", "rand-8k"}:       "cb206a0584e706c92fa7251eaf28b81cb1b2cbce3aefb2212e9e4186d8e400a8",
	{"pr-residual", "1", "rand-8k"}:   "31df20be2feeeb3737124a40c5ac239a53e9c97aa65023a0824381621ad1943c",
	{"sssp-wl", "1", "rand-8k"}:       "71e1831f4c975e7a3e75f1c03b19a42d8729368235bf4ad163e1fe412deb08fa",
	{"sssp-topo", "1", "rand-8k"}:     "163575f319ccc589320ba9c799b96c55b38ede8aeb790a4cc83f998ad0dc8683",
	{"sssp-nf", "1", "rand-8k"}:       "1d459cc9ac87052a232270f35c131704c36f2d4b9e25bf979029f124c6d6c3b9",
	{"tri-bs", "1", "rand-8k"}:        "6f63cf3f8920005070587e1ed364e5454fd72daab4bc6661df2dcd339eaeacb0",
	{"tri-merge", "1", "rand-8k"}:     "1846554c2f9a2e057a69b99dbc74c7290b4aef1915be2e0f80cf1f065329e977",
	{"tri-hash", "1", "rand-8k"}:      "1d6dd3802baee94580f7089382d3a509d71ce3a53ccad46dab61c88bc23dbdad",
}

// TestStandardTracesPinned enforces the trace-cache contract in
// App.Version's doc: a trace may change only together with its
// application's version, because the cache keys on (Name, Version,
// input fingerprint) and would otherwise serve stale traces.
func TestStandardTracesPinned(t *testing.T) {
	inputs := graph.SharedStandardInputs()
	if want := len(All()) * len(inputs); len(pinnedTraces) != want {
		t.Errorf("%d pinned traces, want one per standard pair (%d)", len(pinnedTraces), want)
	}
	for _, in := range inputs {
		for _, app := range All() {
			tr, _ := app.Run(in)
			js := tr.AppendJSONCompact(nil)
			if back, err := irgl.ReadTraceJSON(js); err != nil || !reflect.DeepEqual(back, tr) {
				t.Errorf("%s on %s: the compact trace does not decode back to the trace (%v)", app.Name, in.Name, err)
			}
			key := pinKey{app.Name, app.Version, in.Name}
			got := fmt.Sprintf("%x", sha256.Sum256(js))
			if want, ok := pinnedTraces[key]; !ok || got != want {
				t.Errorf("%s on %s: trace sha256 %s, pinned %q at version %q: "+
					"a change that alters a trace must bump App.Version and re-pin as {%q, %q, %q}: %q",
					app.Name, in.Name, got, want, app.Version, key.app, key.version, key.input, got)
			}
		}
	}
}

// TestTraceAllocsScaleWithLaunches keeps tracing's allocations
// proportional to kernel launches, not to nodes or edges: a kernel may
// allocate its launch record and its closures, but visiting an edge or
// preparing a node's adjacency must not allocate. The bound is a count,
// so it holds without timing noise.
func TestTraceAllocsScaleWithLaunches(t *testing.T) {
	for _, in := range graph.SharedStandardInputs() {
		for _, app := range All() {
			tr, _ := app.Run(in)
			launches := tr.TotalLaunches()
			allocs := testing.AllocsPerRun(1, func() { app.Run(in) })
			if limit := float64(3*launches + 64); allocs > limit {
				t.Errorf("%s on %s: %.0f allocs for %d launches, want at most %.0f",
					app.Name, in.Name, allocs, launches, limit)
			}
		}
	}
}
